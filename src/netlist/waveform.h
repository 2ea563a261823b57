// Source waveforms for independent voltage/current sources.
//
// A waveform carries a DC value (used by the operating-point and DC-sweep
// analyses), an AC phasor (used by the small-signal AC analysis), and an
// optional time shape (used by the transient analysis).
#pragma once

namespace oasys::ckt {

class Waveform {
 public:
  enum class Shape { kDc, kPulse, kSin };

  // Constant value for all analyses.
  static Waveform dc(double value);
  // DC bias plus an AC phasor (magnitude, phase in degrees).
  static Waveform ac(double dc_value, double ac_mag,
                     double ac_phase_deg = 0.0);
  // SPICE-style pulse: v1 -> v2 after `delay`, linear rise/fall.
  static Waveform pulse(double v1, double v2, double delay, double rise,
                        double fall, double width, double period);
  // Sinusoid: offset + ampl * sin(2*pi*freq*(t - delay)) for t >= delay.
  static Waveform sine(double offset, double ampl, double freq,
                       double delay = 0.0);

  double dc_value() const { return dc_; }
  double ac_mag() const { return ac_mag_; }
  double ac_phase_deg() const { return ac_phase_deg_; }
  Shape shape() const { return shape_; }

  // Instantaneous value at time t (transient analysis).
  double value(double t) const;

  // The first corner of the time shape strictly after t: a pulse's
  // rise/fall start and end in every period, a sine's delayed start.  The
  // waveform's slope is continuous between corners, so a transient that
  // lands on each one never integrates across a kink.  +infinity when no
  // corner follows (DC, or a single pulse that has ended).
  double next_breakpoint(double t) const;

  // Returns a copy with the DC level replaced (used by DC sweeps).
  Waveform with_dc(double value) const;
  // Returns a copy with the AC phasor replaced.
  Waveform with_ac(double mag, double phase_deg = 0.0) const;

 private:
  Waveform() = default;

  Shape shape_ = Shape::kDc;
  double dc_ = 0.0;
  double ac_mag_ = 0.0;
  double ac_phase_deg_ = 0.0;
  // Pulse parameters.
  double v1_ = 0.0, v2_ = 0.0, delay_ = 0.0, rise_ = 0.0, fall_ = 0.0,
         width_ = 0.0, period_ = 0.0;
  // Sine parameters.
  double ampl_ = 0.0, freq_ = 0.0;
};

}  // namespace oasys::ckt
