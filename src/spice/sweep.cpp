#include "spice/sweep.h"

namespace oasys::sim {

std::vector<double> DcSweepResult::node_voltages(const MnaLayout& layout,
                                                 ckt::NodeId node) const {
  std::vector<double> out;
  out.reserve(points.size());
  for (const auto& p : points) out.push_back(layout.voltage(p.solution, node));
  return out;
}

DcSweepResult dc_sweep_vsource(ckt::Circuit& c, const tech::Technology& t,
                               const std::string& source_name,
                               const std::vector<double>& values,
                               const OpOptions& base_opts) {
  DcSweepResult result;
  const auto idx = c.find_vsource(source_name);
  if (!idx) {
    result.error = "no voltage source named '" + source_name + "'";
    return result;
  }
  const ckt::Waveform original = c.vsource(*idx).wave;

  OpOptions opts = base_opts;
  // One workspace shared by every point of the warm-started sweep.  With
  // the batch device path this includes the SoA device table: each point
  // rebuilds its constants in place (sizes never change mid-sweep), so the
  // whole sweep stays allocation-free after the first point.
  SimWorkspace ws;
  for (const double v : values) {
    c.vsource(*idx).wave = original.with_dc(v);
    OpResult op = dc_operating_point(c, t, opts, &ws);
    if (!op.converged) {
      c.vsource(*idx).wave = original;
      result.error = "sweep point did not converge at value " +
                     std::to_string(v);
      return result;
    }
    opts.initial_guess = op.solution;  // warm start the next point
    result.values.push_back(v);
    result.points.push_back(std::move(op));
  }
  c.vsource(*idx).wave = original;
  result.ok = true;
  return result;
}

}  // namespace oasys::sim
