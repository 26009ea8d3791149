// Per-connection reference for the adaptive delta codec (DESIGN.md §15): a
// conservative model of the framebuffer one client has applied, the path
// estimate that decides when a delta is worth trying, and the re-encode of
// a RAW update as a DeltaCommand against the model. An armed reference
// implies an unscaled viewport: it arms only on an unscaled renegotiation or
// lazily, and a scaled renegotiation drops it and forfeits the lazy arm.
#ifndef THINC_SRC_CORE_DELTA_REFERENCE_H_
#define THINC_SRC_CORE_DELTA_REFERENCE_H_

#include <memory>
#include <span>

#include "src/adapt/codec_selector.h"
#include "src/core/command.h"
#include "src/raster/surface.h"
#include "src/util/buffer.h"
#include "src/util/cpu.h"
#include "src/util/region.h"

namespace thinc {

class DeltaReference {
 public:
  DeltaReference() : selector_(AdaptOptions{.enabled = true}, &estimator_) {}
  // The estimator is registered with the transport by address.
  DeltaReference(const DeltaReference&) = delete;
  DeltaReference& operator=(const DeltaReference&) = delete;

  // Starts estimating `conn`'s path, forgetting any previous one.
  void Observe(Transport* conn);
  // The transport was lost or replaced, and with it committed bytes: voids
  // the reference (counted in codec.reference_invalidations when armed),
  // forfeits the lazy black arm and forgets the path estimate.
  void Drop();
  // The client negotiated a viewport. Outside `stale` it holds `screen`; the
  // resync refresh repaints the rest. A `scaled` viewport carries pixels the
  // reference cannot model, so it drops the reference instead.
  void Renegotiated(const Surface& screen, const Region& stale, bool scaled);
  // The fidelity factor changed: the whole surface goes stale (counted as an
  // invalidation when armed) until full-fidelity content lands on it.
  void FidelityChanged();
  // Marks `region` stale, e.g. a rect a video overlay vacated.
  void MarkStale(const Region& region);
  // Folds in a display command whose frame was fully committed to the
  // in-order transport. A virgin session's first commit arms the reference
  // against the client's initial black framebuffer, sized like `screen`.
  void Apply(const Command& cmd, const Surface& screen);

  // Returns `cmd` as a DeltaCommand when it is a full-rect RAW, the selector
  // picks a temporal codec at `degradation_level`, the reference is exact
  // under the rect, no `overlays` rect (live video) touches it, and the
  // delta frame is strictly smaller than the intra one; else `cmd` itself.
  // On a starved path an eligible RAW is fidelity-subsampled first either
  // way (charged to `cpu`, re-interned in `payloads`).
  std::unique_ptr<Command> MaybeDelta(std::unique_ptr<Command> cmd,
                                      int degradation_level,
                                      std::span<const Rect> overlays,
                                      CpuAccount* cpu, PayloadPool* payloads);

  bool armed() const { return armed_; }
  // Where the reference is not trustworthy (meaningful only when armed).
  const Region& stale() const { return stale_; }

 private:
  // Voids the reference, keeping the estimate and the lazy-arm state.
  void Void();

  NetEstimator estimator_;
  CodecSelector selector_;
  Surface screen_;
  Region stale_;
  bool armed_ = false;
  bool lazy_arm_ok_ = true;  // the client still shows its initial black
};

}  // namespace thinc

#endif  // THINC_SRC_CORE_DELTA_REFERENCE_H_
