#include "src/device/device.h"

namespace thinc {

const char* DeviceClassName(DeviceClass klass) {
  switch (klass) {
    case DeviceClass::kDesktop:
      return "desktop";
    case DeviceClass::kSmartphone:
      return "phone";
    case DeviceClass::kTerminal:
      return "terminal";
  }
  return "unknown";
}

DeviceProfile DesktopProfile() {
  return DeviceProfile{};
}

DeviceProfile SmartphoneProfile() {
  DeviceProfile p;
  p.klass = DeviceClass::kSmartphone;
  p.name = "phone";
  p.screen_width = 480;
  p.screen_height = 320;
  p.decode_speed = 0.35;
  p.ladder = DegradationSchedule::ResolutionFirst();
  // Cellular-ish WAN: modest rate, high RTT, and a window small enough that
  // retransmission stalls bite (real handset stacks run small buffers).
  LinkParams link;
  link.bandwidth_bps = 8'000'000;
  link.rtt = 60 * kMillisecond;
  link.tcp_window_bytes = 256 << 10;
  link.name = "phone-wan";
  p.link = link;
  p.lossy = true;
  // LossyOptions defaults model the bursty cellular path; the per-session
  // seed is overridden by whoever instantiates the session.
  p.cadence = InputCadence::kPhoneTouch;
  return p;
}

DeviceProfile PiTerminalProfile() {
  DeviceProfile p;
  p.klass = DeviceClass::kTerminal;
  p.name = "terminal";
  p.decode_speed = 0.5;
  // Clean LAN wire at the host default link; full native screen.
  p.cadence = InputCadence::kTerminalKiosk;
  return p;
}

ThincSessionOptions ApplyProfile(const DeviceProfile& profile,
                                 ThincSessionOptions options) {
  // The profile chooses the overload ladder (phones degrade resolution
  // first) and names the client's trace host by class so mixed populations
  // stay distinguishable.
  options.server.ladder = profile.ladder;
  options.client.telemetry_host += "-" + profile.name;
  options.transport.link = profile.link.value_or(options.transport.link);
  if (profile.lossy) {
    options.transport.kind = TransportKind::kLossy;
    options.transport.loss = profile.loss;
  }
  options.decode_speed = profile.decode_speed;
  // A device panel smaller than the hosted desktop negotiates its viewport
  // at session start: the server resamples every update through the Fant
  // path (Section 6) and ships phone-sized bytes from the first refresh.
  if (profile.screen_width > 0 && profile.screen_height > 0 &&
      (profile.screen_width != options.screen_width ||
       profile.screen_height != options.screen_height)) {
    options.viewport = Point{profile.screen_width, profile.screen_height};
  }
  return options;
}

}  // namespace thinc
