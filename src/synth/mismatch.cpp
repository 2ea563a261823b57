#include "synth/mismatch.h"

#include <cmath>

#include "mos/design_eqs.h"

namespace oasys::synth {

double predict_random_offset_sigma(const OpAmpDesign& design,
                                   const tech::Technology& t) {
  // First-stage contributors: the input pair (direct) and the load-mirror
  // pair (scaled by gm_load/gm_input).  sigma(VT) per device; pairs add in
  // power as sqrt(2) * sigma.
  const blocks::SizedDevice* m1 = design.device("M1");
  if (m1 == nullptr) return 0.0;
  const tech::MosParams& pn =
      m1->type == mos::MosType::kNmos ? t.nmos : t.pmos;
  const double gm1 = mos::gm_from_id_vov(m1->id, m1->vov);
  const double s1 = pn.sigma_vt(m1->w * m1->m, m1->l);
  double var = 2.0 * s1 * s1;

  // Load mirror: either the op-amp's "ML_out" or the folded "MLF_out".
  const blocks::SizedDevice* m3 = design.device("ML_out");
  if (m3 == nullptr) m3 = design.device("MLF_out");
  if (m3 != nullptr && gm1 > 0.0) {
    const tech::MosParams& pl =
        m3->type == mos::MosType::kNmos ? t.nmos : t.pmos;
    const double gm3 = mos::gm_from_id_vov(m3->id, m3->vov);
    const double s3 = pl.sigma_vt(m3->w * m3->m, m3->l);
    const double scale = gm3 / gm1;
    var += 2.0 * scale * scale * s3 * s3;
  }
  return std::sqrt(var);
}

}  // namespace oasys::synth
