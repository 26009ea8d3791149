// Screen sharing: one desktop session watched by three clients at once — a
// LAN desktop, a trans-Atlantic collaborator, and a PDA — exercising the
// paper's collaboration use case. A fourth viewer joins late and catches up
// via a full refresh.
//
//   ./build/examples/screen_share

#include <cstdio>

#include "src/core/session_share.h"
#include "src/workload/web.h"

using namespace thinc;

int main() {
  EventLoop loop;
  SharedSessionHost host(&loop, 1024, 768);

  auto* desktop = host.AddViewer(LanDesktopLink());
  LinkParams atlantic;
  for (const RemoteSite& site : RemoteSites()) {
    if (site.name == "IE") {
      atlantic = site.link;
    }
  }
  auto* ireland = host.AddViewer(atlantic);
  auto* pda = host.AddViewer(Pda80211gLink());
  pda->client()->RequestViewport(320, 240);
  loop.Run();

  // The host browses a page; every viewer sees it.
  WebWorkload workload(1024, 768);
  workload.RenderPage(host.window_server(), 1, host.host_cpu());
  loop.Run();

  // A support engineer joins mid-session ("instant technical support ...
  // seeing exactly what the user sees").
  auto* support = host.AddViewer(WanDesktopLink());
  loop.Run();

  auto report = [&](const char* who, SharedSessionHost::Viewer* v) {
    int64_t diff = -1;
    bool exact = host.window_server()->screen().Equals(v->client()->framebuffer(),
                                                       &diff);
    std::printf("%-10s %4dx%-4d  %8lld bytes  %s\n", who,
                v->client()->framebuffer().width(), v->client()->framebuffer().height(),
                static_cast<long long>(v->transport()->BytesDeliveredTo(Connection::kClient)),
                exact ? "pixel-exact" : "server-resized view");
  };
  std::printf("viewer     geometry       received  fidelity\n");
  report("desktop", desktop);
  report("ireland", ireland);
  report("pda", pda);
  report("support", support);

  std::printf("\nAll four clients share the same live session; the PDA receives\n"
              "server-resized updates, and the late joiner caught up with one\n"
              "full-screen refresh.\n");
  return 0;
}
