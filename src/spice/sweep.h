// DC sweep: operating points while stepping one source's DC value,
// warm-started point-to-point (the warm start makes the points
// order-dependent, so the sweep is serial by construction).
#pragma once

#include <string>
#include <vector>

#include "spice/dc.h"

namespace oasys::sim {

struct DcSweepResult {
  bool ok = false;
  std::string error;
  std::vector<double> values;    // swept source DC values
  std::vector<OpResult> points;  // one converged OP per value (parallel)

  // Voltage of `node` across the sweep.
  std::vector<double> node_voltages(const MnaLayout& layout,
                                    ckt::NodeId node) const;
};

// Sweeps the DC value of the named voltage source over `values`.  The
// circuit is restored to its original state before returning.  Points that
// fail to converge abort the sweep (result.ok = false, error set).
DcSweepResult dc_sweep_vsource(ckt::Circuit& c, const tech::Technology& t,
                               const std::string& source_name,
                               const std::vector<double>& values,
                               const OpOptions& base_opts = {});

}  // namespace oasys::sim
