#include "netlist/waveform.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/units.h"

namespace oasys::ckt {

Waveform Waveform::dc(double value) {
  Waveform w;
  w.shape_ = Shape::kDc;
  w.dc_ = value;
  return w;
}

Waveform Waveform::ac(double dc_value, double ac_mag, double ac_phase_deg) {
  Waveform w = dc(dc_value);
  w.ac_mag_ = ac_mag;
  w.ac_phase_deg_ = ac_phase_deg;
  return w;
}

Waveform Waveform::pulse(double v1, double v2, double delay, double rise,
                         double fall, double width, double period) {
  if (rise < 0.0 || fall < 0.0 || width < 0.0) {
    throw std::invalid_argument("pulse: rise/fall/width must be >= 0");
  }
  Waveform w;
  w.shape_ = Shape::kPulse;
  w.dc_ = v1;  // DC analyses see the initial level
  w.v1_ = v1;
  w.v2_ = v2;
  w.delay_ = delay;
  w.rise_ = rise;
  w.fall_ = fall;
  w.width_ = width;
  w.period_ = period;
  return w;
}

Waveform Waveform::sine(double offset, double ampl, double freq,
                        double delay) {
  if (freq <= 0.0) throw std::invalid_argument("sine: freq must be > 0");
  Waveform w;
  w.shape_ = Shape::kSin;
  w.dc_ = offset;
  w.v1_ = offset;
  w.ampl_ = ampl;
  w.freq_ = freq;
  w.delay_ = delay;
  return w;
}

double Waveform::value(double t) const {
  switch (shape_) {
    case Shape::kDc:
      return dc_;
    case Shape::kSin: {
      if (t < delay_) return dc_;
      return dc_ + ampl_ * std::sin(util::kTwoPi * freq_ * (t - delay_));
    }
    case Shape::kPulse: {
      if (t < delay_) return v1_;
      double tl = t - delay_;
      if (period_ > 0.0) tl = std::fmod(tl, period_);
      if (tl < rise_) {
        return rise_ > 0.0 ? v1_ + (v2_ - v1_) * tl / rise_ : v2_;
      }
      tl -= rise_;
      if (tl < width_) return v2_;
      tl -= width_;
      if (tl < fall_) {
        return fall_ > 0.0 ? v2_ + (v1_ - v2_) * tl / fall_ : v1_;
      }
      return v1_;
    }
  }
  return dc_;
}

double Waveform::next_breakpoint(double t) const {
  constexpr double kNone = std::numeric_limits<double>::infinity();
  switch (shape_) {
    case Shape::kDc:
      return kNone;
    case Shape::kSin:
      return delay_ > t ? delay_ : kNone;
    case Shape::kPulse: {
      // Corner offsets within one period.  A period shorter than the
      // pulse truncates it (value() wraps with fmod), so offsets at or
      // past the period are not corners.
      const double offsets[] = {0.0, rise_, rise_ + width_,
                                rise_ + width_ + fall_};
      const bool periodic = period_ > 0.0;
      // Search the period holding t and the one after it: each period
      // starts with a corner, so the answer lies within them.
      const double first =
          periodic && t > delay_ ? std::floor((t - delay_) / period_) : 0.0;
      for (double k = first; k <= first + 1.0; k += 1.0) {
        const double start = delay_ + (periodic ? k * period_ : 0.0);
        for (const double off : offsets) {
          if (periodic && off >= period_) break;
          if (start + off > t) return start + off;
        }
        if (!periodic) break;
      }
      return kNone;
    }
  }
  return kNone;
}

Waveform Waveform::with_dc(double value) const {
  Waveform w = *this;
  w.dc_ = value;
  if (w.shape_ == Shape::kPulse) w.v1_ = value;
  return w;
}

Waveform Waveform::with_ac(double mag, double phase_deg) const {
  Waveform w = *this;
  w.ac_mag_ = mag;
  w.ac_phase_deg_ = phase_deg;
  return w;
}

}  // namespace oasys::ckt
