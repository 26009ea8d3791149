// RemoteDisplaySystem: the harness-facing interface every thin-client
// system under test implements (THINC plus the seven comparison platforms of
// Section 8). The experiment runner drives the application workload through
// api(), injects user input through ClientClick(), and reads measurement
// state (bytes delivered, delivery/processing timestamps, displayed video
// frames) exactly the way the paper's packet monitor + instrumented clients
// did.
#ifndef THINC_SRC_BASELINES_SYSTEM_H_
#define THINC_SRC_BASELINES_SYSTEM_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/display/drawing_api.h"
#include "src/net/link.h"
#include "src/raster/surface.h"
#include "src/util/cpu.h"
#include "src/util/event_loop.h"

namespace thinc {

// Relative CPU speeds matching the testbed (Section 8.1): dual 933 MHz PIII
// server vs 450 MHz PII client.
inline constexpr double kServerCpuSpeed = 2.0;
inline constexpr double kClientCpuSpeed = 1.0;

// The systems under test. Each comparison model takes its kind and whether
// the network calls for the product's WAN profile (Section 8.1), and
// derives every product setting from those two facts.
enum class SystemKind {
  kThinc,
  kX,
  kNx,
  kVnc,
  kSunRay,
  kRdp,
  kIca,
  kGotomypc,
  kLocalPc,
};

class RemoteDisplaySystem {
 public:
  using InputFn = std::function<void(Point)>;

  virtual ~RemoteDisplaySystem() = default;

  // The interface the application workload draws through (runs wherever the
  // GUI runs for this architecture).
  virtual DrawingApi* api() = 0;

  // CPU account of the host executing application logic (page layout etc.).
  virtual CpuAccount* app_cpu() = 0;

  // --- User interaction -------------------------------------------------------
  // A click at the client; must traverse the network (if any) and invoke the
  // input callback on the application side.
  virtual void ClientClick(Point location) = 0;
  virtual void SetInputCallback(InputFn fn) = 0;

  // --- Capabilities ------------------------------------------------------------
  virtual bool SupportsAudio() const { return true; }
  // PDA-style small client. Resize-model systems scale; clip-model systems
  // show a viewport-sized window into the desktop. Only ICA, RDP, GoToMyPC,
  // VNC and THINC can present a client geometry different from the
  // server's (Section 8.3); the others ignore the call.
  virtual void SetViewport(int32_t width, int32_t height) {}

  // --- Audio ------------------------------------------------------------------
  virtual void SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) {}

  // --- Content fetch --------------------------------------------------------------
  // The application fetches `bytes` of content (HTML, compressed images,
  // encoded media) from the web server. Only meaningful where that fetch
  // crosses the measured network (the local PC); thin-client servers sit
  // next to the web server.
  virtual void FetchContent(int64_t bytes) {}

  // --- Video accounting ---------------------------------------------------------
  // Systems that lose frame identity (screen scrapers) count a displayed
  // video frame whenever a delivered update covers most of this rect.
  // Semantic systems ignore it — they track real stream frames.
  virtual void SetVideoProbeRect(const Rect& rect) {}

  // --- Measurement ---------------------------------------------------------------
  virtual int64_t BytesToClient() const = 0;
  virtual SimTime LastDeliveryToClient() const = 0;
  // Includes client processing where the architecture exposes it (the
  // paper could only instrument X, VNC, NX, and THINC; we can always).
  virtual SimTime ClientLastProcessedAt() const = 0;
  // Arrival times of video frames displayed at the client.
  virtual const std::vector<SimTime>& VideoFrameTimes() const = 0;
  virtual int64_t AudioBytesDelivered() const { return 0; }
  // Client framebuffer for fidelity checks; null for pixel-less models.
  virtual const Surface* ClientFramebuffer() const = 0;
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_SYSTEM_H_
