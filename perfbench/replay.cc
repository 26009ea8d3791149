// Codec and raster kernel replay over a workload's own pixels.
#include <algorithm>
#include <cstring>

#include "harness.h"
#include "src/codec/delta.h"
#include "src/codec/hextile.h"
#include "src/codec/lzss.h"
#include "src/codec/pnglike.h"
#include "src/codec/rc4.h"
#include "src/raster/fant.h"

namespace perfbench {
namespace {

using thinc::Pixel;
using thinc::Surface;
using thinc::Yv12Frame;

std::vector<uint8_t> Bytes(const Surface& s) {
  std::vector<uint8_t> out(s.pixels().size() * sizeof(Pixel));
  std::memcpy(out.data(), s.pixels().data(), out.size());
  return out;
}

// Accumulates host time of one kernel.
struct Stopwatch {
  int64_t ns = 0;
  template <typename Fn>
  auto Time(Fn&& fn) {
    struct Lap {
      Stopwatch* w;
      Clock::time_point t0 = Clock::now();
      ~Lap() { w->ns += NsSince(t0); }
    } lap{this};
    return fn();
  }
  double MbPerS(double bytes) const { return ns > 0 ? bytes / 1e6 / (ns / 1e9) : 0; }
};

}  // namespace

ReplayResult ReplayKernels(Workload workload, const Corpus& corpus) {
  ReplayResult r;
  // The workload's screens (RGB), byte payloads, and YV12 frames. The A/V
  // suite's payloads are the YV12 frames THINC ships; its screens are those
  // frames as the software fallback scales them full-screen. The web
  // workloads' payloads are their screens, and their YV12 frames a clip-sized
  // corner of each screen.
  std::vector<Surface> screens;
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<Yv12Frame> frames;
  if (workload == Workload::kAvPaper) {
    frames = corpus.frames;
    for (size_t i = 0; i < frames.size(); ++i) {
      payloads.push_back(frames[i].Pack());
      if (i < 4) {
        screens.push_back(thinc::Yv12ScaleToRgb(frames[i], 1024, 768));
      }
    }
  } else {
    screens = corpus.screens;
    for (const Surface& s : screens) {
      payloads.push_back(Bytes(s));
      frames.push_back(thinc::RgbToYv12(s.SubSurface(thinc::Rect{0, 0, 352, 240})));
    }
  }
  if (screens.empty() || payloads.empty()) {
    r.failures.push_back("codec replay: the traced pass captured no pixels");
    return r;
  }

  // LZSS, with its round trip.
  Stopwatch lzss_enc, lzss_dec;
  double payload_bytes = 0, lzss_bytes = 0;
  for (const std::vector<uint8_t>& p : payloads) {
    const std::vector<uint8_t> enc = lzss_enc.Time([&] { return thinc::LzssEncode(p); });
    std::vector<uint8_t> dec;
    const bool ok = lzss_dec.Time([&] { return thinc::LzssDecode(enc, &dec); });
    if (!ok || dec != p) {
      r.failures.push_back("LzssDecode(LzssEncode(x)) != x");
    }
    payload_bytes += static_cast<double>(p.size());
    lzss_bytes += static_cast<double>(enc.size());
  }

  // RC4 applied twice with one key is the identity.
  Stopwatch rc4;
  const uint8_t key[] = {'p', 'e', 'r', 'f', 'b', 'e', 'n', 'c', 'h'};
  for (const std::vector<uint8_t>& p : payloads) {
    thinc::Rc4Cipher enc_cipher(key);
    thinc::Rc4Cipher dec_cipher(key);
    const std::vector<uint8_t> enc = rc4.Time([&] { return enc_cipher.Process(p); });
    const std::vector<uint8_t> dec = rc4.Time([&] { return dec_cipher.Process(enc); });
    if (dec != p) {
      r.failures.push_back("RC4 applied twice is not the identity");
    }
  }

  // Pixel codecs over the screens; delta against the previous screen.
  Stopwatch png, hextile, delta, fant;
  double pixel_bytes = 0, delta_bytes = 0, fant_mpix = 0;
  for (size_t i = 0; i < screens.size(); ++i) {
    const Surface& s = screens[i];
    png.Time([&] { return thinc::PngLikeEncode(s.pixels(), s.width(), s.height()); });
    hextile.Time([&] { return thinc::HextileEncode(s.pixels(), s.width(), s.height()); });
    fant.Time([&] { return thinc::FantResample(s, s.width() / 2, s.height() / 2); });
    pixel_bytes += static_cast<double>(s.pixels().size() * sizeof(Pixel));
    fant_mpix += static_cast<double>(s.pixels().size()) / 1e6;
    if (i == 0 || screens[i - 1].width() != s.width() ||
        screens[i - 1].height() != s.height()) {
      continue;
    }
    const Surface& ref = screens[i - 1];
    const std::vector<uint8_t> enc = delta.Time([&] {
      return thinc::DeltaEncode(ref.pixels(), s.pixels(), s.width(), s.height());
    });
    std::vector<Pixel> dec;
    if (!thinc::DeltaDecode(enc, ref.pixels(), s.width(), s.height(), &dec) ||
        !std::equal(dec.begin(), dec.end(), s.pixels().begin(), s.pixels().end())) {
      r.failures.push_back("DeltaDecode does not reproduce the frame");
    }
    delta_bytes += static_cast<double>(s.pixels().size() * sizeof(Pixel));
  }

  // YV12 -> RGB scaling at each paper configuration's destination size:
  // full screen on LAN and WAN, the 320x240 viewport on the PDA.
  Stopwatch yuv;
  const int32_t sizes[][2] = {{1024, 768}, {1024, 768}, {320, 240}};
  int scaled = 0;
  for (const Yv12Frame& f : frames) {
    for (const auto& size : sizes) {
      yuv.Time([&] { return thinc::Yv12ScaleToRgb(f, size[0], size[1]); });
      ++scaled;
    }
  }

  r.metrics = {
      {"codec.lzss_encode_mb_s", lzss_enc.MbPerS(payload_bytes)},
      {"codec.lzss_decode_mb_s", lzss_dec.MbPerS(payload_bytes)},
      {"codec.lzss_ratio", lzss_bytes > 0 ? payload_bytes / lzss_bytes : 0},
      {"codec.pnglike_encode_mb_s", png.MbPerS(pixel_bytes)},
      {"codec.hextile_encode_mb_s", hextile.MbPerS(pixel_bytes)},
      {"codec.rc4_mb_s", rc4.MbPerS(2 * payload_bytes)},
      {"codec.delta_encode_mb_s", delta.MbPerS(delta_bytes)},
      {"raster.yuv_scale_ms_per_frame",
       scaled > 0 ? static_cast<double>(yuv.ns) / 1e6 / scaled : 0},
      {"raster.fant_ms_per_mpix",
       fant_mpix > 0 ? static_cast<double>(fant.ns) / 1e6 / fant_mpix : 0},
  };
  return r;
}

}  // namespace perfbench
