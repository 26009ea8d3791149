// The repository's strongest end-to-end property: for ANY sequence of
// drawing operations — offscreen hierarchies, overlapping fills, text,
// scrolls, images, under SRSF reordering, command splitting, eviction, and
// encryption — every lossless system's client framebuffer must converge to
// exactly the reference rendering once the network quiesces.
#include <gtest/gtest.h>

#include "src/baselines/rdp_system.h"
#include "src/baselines/scrape_system.h"
#include "src/baselines/sunray_system.h"
#include "src/baselines/thinc_system.h"
#include "src/baselines/x_system.h"
#include "src/util/prng.h"

namespace thinc {
namespace {

constexpr int32_t kW = 160;
constexpr int32_t kH = 120;

// Issues a random operation stream against `api` (and identically against a
// local reference window server).
class RandomPainter {
 public:
  explicit RandomPainter(uint64_t seed) : rng_(seed) {}

  void Paint(DrawingApi* api, DrawingApi* reference, int ops) {
    auto both = [&](auto&& fn) {
      fn(api);
      fn(reference);
    };
    // A couple of persistent pixmaps to exercise cross-pixmap copies. Ids
    // match across implementations because allocation order is identical.
    both([&](DrawingApi* a) { pixmaps_[a] = {a->CreatePixmap(60, 60),
                                             a->CreatePixmap(40, 40)}; });
    for (int i = 0; i < ops; ++i) {
      int op = static_cast<int>(rng_.NextBelow(9));
      // Choose destination: screen or one of the pixmaps (by index so both
      // sides pick the same drawable).
      int dst_index = static_cast<int>(rng_.NextBelow(3));
      Rect r = RandomRect();
      Pixel color = RandomColor();
      uint64_t aux = rng_.Next();
      switch (op) {
        case 0:
        case 1:
          both([&](DrawingApi* a) { a->FillRect(Dst(a, dst_index), r, color); });
          break;
        case 2: {
          std::string text = "TXT" + std::to_string(aux % 1000);
          both([&](DrawingApi* a) {
            a->DrawText(Dst(a, dst_index), r.origin(), text, color);
          });
          break;
        }
        case 3: {
          std::vector<Pixel> image(static_cast<size_t>(r.area()));
          Prng content(aux);
          for (Pixel& p : image) {
            p = static_cast<Pixel>(content.Next()) | 0xFF000000;
          }
          both([&](DrawingApi* a) { a->PutImage(Dst(a, dst_index), r, image); });
          break;
        }
        case 4: {
          Surface tile(4, 4, kBlack);
          Prng content(aux);
          for (int32_t y = 0; y < 4; ++y) {
            for (int32_t x = 0; x < 4; ++x) {
              tile.Put(x, y, static_cast<Pixel>(content.Next()) | 0xFF000000);
            }
          }
          both([&](DrawingApi* a) {
            a->FillTiled(Dst(a, dst_index), r, tile, r.origin());
          });
          break;
        }
        case 5: {
          // Copy pixmap -> screen (the offscreen present).
          int src_index = 1 + static_cast<int>(aux % 2);
          Point at{static_cast<int32_t>(rng_.NextBelow(kW - 40)),
                   static_cast<int32_t>(rng_.NextBelow(kH - 40))};
          both([&](DrawingApi* a) {
            a->CopyArea(Dst(a, src_index), kScreenDrawable, Rect{0, 0, 40, 40}, at);
          });
          break;
        }
        case 6: {
          // Pixmap -> pixmap hierarchy copy.
          both([&](DrawingApi* a) {
            a->CopyArea(Dst(a, 2), Dst(a, 1), Rect{0, 0, 30, 30}, Point{10, 10});
          });
          break;
        }
        case 7:
          both([&](DrawingApi* a) {
            a->ScrollUp(kScreenDrawable, Rect{0, 0, kW, kH}, 8, color);
          });
          break;
        default: {
          // Screen-to-screen copy with random geometry.
          Rect src = RandomRect();
          Point at{static_cast<int32_t>(rng_.NextBelow(kW / 2)),
                   static_cast<int32_t>(rng_.NextBelow(kH / 2))};
          both([&](DrawingApi* a) {
            a->CopyArea(kScreenDrawable, kScreenDrawable, src, at);
          });
          break;
        }
      }
    }
    both([&](DrawingApi* a) {
      a->FreePixmap(Dst(a, 1));
      a->FreePixmap(Dst(a, 2));
    });
  }

 private:
  DrawableId Dst(DrawingApi* a, int index) {
    return index == 0 ? kScreenDrawable : pixmaps_[a][index - 1];
  }
  Rect RandomRect() {
    return Rect{static_cast<int32_t>(rng_.NextBelow(kW - 20)),
                static_cast<int32_t>(rng_.NextBelow(kH - 20)),
                static_cast<int32_t>(rng_.NextInRange(2, 36)),
                static_cast<int32_t>(rng_.NextInRange(2, 28))};
  }
  Pixel RandomColor() { return static_cast<Pixel>(rng_.Next()) | 0xFF000000; }

  Prng rng_;
  std::map<DrawingApi*, std::array<DrawableId, 2>> pixmaps_;
};

struct FidelityCase {
  const char* system;
  uint64_t seed;
};

void PrintTo(const FidelityCase& c, std::ostream* os) {
  *os << c.system << "/seed" << c.seed;
}

class FidelityPropertyTest : public ::testing::TestWithParam<FidelityCase> {};

TEST_P(FidelityPropertyTest, ClientConvergesToReference) {
  const FidelityCase& param = GetParam();
  EventLoop loop;
  std::unique_ptr<RemoteDisplaySystem> sys;
  std::string name = param.system;
  // Small socket buffer for THINC to force command splitting mid-stream.
  if (name == "THINC") {
    sys = std::make_unique<ThincSystem>(&loop, LanDesktopLink(), kW, kH);
  } else if (name == "THINC-notrack") {
    ThincServerOptions options;
    options.offscreen_tracking = false;
    sys = std::make_unique<ThincSystem>(&loop, LanDesktopLink(), kW, kH, options);
  } else if (name == "THINC-fifo") {
    ThincServerOptions options;
    options.scheduler.fifo = true;
    sys = std::make_unique<ThincSystem>(&loop, LanDesktopLink(), kW, kH, options);
  } else if (name == "THINC-pull") {
    ThincServerOptions options;
    options.server_push = false;
    sys = std::make_unique<ThincSystem>(&loop, LanDesktopLink(), kW, kH, options);
  } else if (name == "X") {
    sys = std::make_unique<XSystem>(&loop, LanDesktopLink(), kW, kH, SystemKind::kX);
  } else if (name == "VNC") {
    sys = std::make_unique<ScrapeSystem>(&loop, LanDesktopLink(), kW, kH,
                                         SystemKind::kVnc);
  } else if (name == "SunRay") {
    sys = std::make_unique<SunRaySystem>(&loop, LanDesktopLink(), kW, kH);
  } else {
    sys = std::make_unique<RdpSystem>(&loop, LanDesktopLink(), kW, kH, SystemKind::kRdp);
  }

  WindowServer reference(kW, kH, nullptr, nullptr);
  RandomPainter painter(param.seed);
  painter.Paint(sys->api(), &reference, 60);
  loop.Run();

  const Surface* client = sys->ClientFramebuffer();
  ASSERT_NE(client, nullptr);
  int64_t diff = 0;
  EXPECT_TRUE(reference.screen().Equals(*client, &diff))
      << name << " seed " << param.seed << ": " << diff << " pixels differ";
}

std::vector<FidelityCase> AllCases() {
  std::vector<FidelityCase> cases;
  // NX is excluded: its default image profile is intentionally lossy (its
  // bounded-error fidelity is covered in baselines_test.cc).
  for (const char* system : {"THINC", "THINC-notrack", "THINC-fifo", "THINC-pull",
                             "X", "VNC", "SunRay", "RDP"}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      cases.push_back(FidelityCase{system, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Systems, FidelityPropertyTest,
                         ::testing::ValuesIn(AllCases()));

// THINC under hostile transport conditions: minuscule socket buffers force
// constant would-block handling and command splitting.
class ThincStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ThincStressTest, ConvergesWithTinySocketBuffers) {
  EventLoop loop;
  // Slow, thin link; the 256 KB default buffer is replaced by the
  // Connection's constructor default — instead stress via a slow link so
  // the buffer is persistently full.
  LinkParams link{2'000'000, 5'000, 64 << 10, "stress"};
  ThincSystem sys(&loop, link, kW, kH);
  WindowServer reference(kW, kH, nullptr, nullptr);
  RandomPainter painter(GetParam());
  painter.Paint(sys.api(), &reference, 40);
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(reference.screen().Equals(*sys.ClientFramebuffer(), &diff))
      << diff << " pixels differ";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThincStressTest, ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace thinc
