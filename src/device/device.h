// Client device profiles — the heterogeneous-population matrix.
//
// Every evaluation client used to be a uniform PC-class desktop on a clean
// pipe. A DeviceProfile bundles what actually varies across real thin-client
// populations (ROADMAP item 5) and threads it through the whole stack:
//
//   * screen geometry — a smartphone panel is far smaller than the hosted
//     desktop, so the session negotiates a viewport at startup and the
//     server's Fant resample path (Section 6) does the real work of shipping
//     phone-sized updates;
//   * decode CPU — a phone or Pi-class terminal decodes at a fraction of
//     desktop speed (its private CpuAccount runs slower);
//   * degradation schedule — under host overload a phone sheds resolution
//     first (DegradationSchedule::ResolutionFirst()), desktops keep the
//     classic rung order;
//   * path — an optional per-session link override plus an optional
//     Gilbert–Elliott lossy WAN model (src/net/lossy.h);
//   * input cadence — which interactive trace generator class drives the
//     session (src/workload/input_trace.h).
//
// ApplyProfile turns a profile into session options, for ThincSystem and
// FleetHost alike. A FleetHost admits a mixed population by passing one
// profile per AddSession; a ClusterController forwards profiles through
// placement and they travel with the session across live migrations (the
// profile lives in FleetSession). The default-constructed profile IS the
// desktop.
#ifndef THINC_SRC_DEVICE_DEVICE_H_
#define THINC_SRC_DEVICE_DEVICE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/core/thinc_server.h"
#include "src/core/thinc_session.h"
#include "src/net/link.h"
#include "src/net/lossy.h"

namespace thinc {

enum class DeviceClass {
  kDesktop,     // PC-class client, clean link, full screen
  kSmartphone,  // small panel, weak decode CPU, lossy WAN path
  kTerminal,    // Pi-class display-only terminal: full screen, weak CPU, LAN
};

const char* DeviceClassName(DeviceClass klass);

// Interactive input cadence class (how the user drives the session); the
// trace generators in src/workload/input_trace.h key their event mix and
// rates off this.
enum class InputCadence {
  kDesktopKeyboard,  // fast touch-typing bursts + wheel scrolling
  kPhoneTouch,       // slow thumb typing + flick scrolls
  kTerminalKiosk,    // sparse form-filling keystrokes, little scrolling
};

struct DeviceProfile {
  DeviceClass klass = DeviceClass::kDesktop;
  std::string name = "desktop";
  // Native panel geometry. 0 means "the hosted desktop's size": no viewport
  // negotiation. A smaller panel triggers RequestViewport at session start,
  // engaging the server-side Fant resize path.
  int32_t screen_width = 0;
  int32_t screen_height = 0;
  // Decode CPU speed relative to the reference client (1.0 = desktop).
  double decode_speed = 1.0;
  // Overload-ladder rung order for this device's sessions.
  DegradationSchedule ladder;
  // Per-session link override; nullopt uses the host/experiment default.
  std::optional<LinkParams> link;
  // Lossy WAN path model; when enabled the session's wire is a
  // LossyTransport seeded per session (fleet hosts derive the seed from the
  // session seed, so populations stay deterministic).
  bool lossy = false;
  LossyOptions loss;
  // Which interactive input trace class drives this device.
  InputCadence cadence = InputCadence::kDesktopKeyboard;
};

// The three canonical profiles of the device matrix.
//
// PC-class desktop: everything at reference defaults.
DeviceProfile DesktopProfile();
// Smartphone-class remote display (VirtuMob): 480x320 panel, 0.35x decode,
// resolution-first ladder, jittery lossy WAN path.
DeviceProfile SmartphoneProfile();
// Pi-class display-only terminal (computer-lab deployment): full screen on a
// clean LAN wire, 0.5x decode CPU, sparse kiosk input.
DeviceProfile PiTerminalProfile();

// `options` for a session serving `profile`. A lossy profile's transport
// keeps profile.loss.seed; hosts of many sessions reseed it per session.
ThincSessionOptions ApplyProfile(const DeviceProfile& profile,
                                 ThincSessionOptions options);

}  // namespace thinc

#endif  // THINC_SRC_DEVICE_DEVICE_H_
