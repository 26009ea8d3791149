#include "src/workload/web.h"

#include <algorithm>

#include "src/raster/font.h"
#include "src/util/logging.h"

namespace thinc {
namespace {

const char* const kWords[] = {
    "THE",  "QUICK", "BROWN",  "FOX",   "JUMPS",  "OVER",  "LAZY",  "DOG",
    "WEB",  "PAGE",  "SERVER", "CLIENT", "THIN",  "DISPLAY", "REMOTE", "DRIVER",
    "AND",  "OF",    "TO",     "IN",    "IS",     "THAT",  "FOR",   "WITH",
};
constexpr size_t kWordCount = sizeof(kWords) / sizeof(kWords[0]);

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ULL + b;
  x ^= x >> 29;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 32;
  return x;
}

}  // namespace

WebWorkload::WebWorkload(int32_t screen_width, int32_t screen_height, uint64_t seed)
    : width_(screen_width), height_(screen_height) {
  pages_.reserve(kPageCount);
  for (int32_t i = 0; i < kPageCount; ++i) {
    Prng rng(Mix(seed, static_cast<uint64_t>(i) + 1));
    WebPageSpec p;
    p.index = i;
    p.background = MakePixel(240 + static_cast<uint8_t>(rng.NextBelow(16)),
                             240 + static_cast<uint8_t>(rng.NextBelow(16)),
                             240 + static_cast<uint8_t>(rng.NextBelow(16)));
    // Every ~7th page is a single large image (photo page).
    p.big_image_page = (i % 7 == 3);
    if (p.big_image_page) {
      int32_t w = width_ * 3 / 4;
      int32_t h = height_ * 2 / 3;
      p.images.push_back(WebImageSpec{Rect{width_ / 8, 80, w, h}});
      // JPEG-class image content: ~0.2 bytes per pixel plus markup.
      p.content_bytes = static_cast<int64_t>(w) * h / 5 + 15'000;
      p.layout_cost_us = 60'000;
      pages_.push_back(std::move(p));
      continue;
    }
    p.tiled_header = rng.NextBool(0.7);
    p.aa_banner = rng.NextBool(0.35);
    // Text blocks: 2-5 paragraphs.
    int32_t blocks = 2 + static_cast<int32_t>(rng.NextBelow(4));
    int32_t y = 100;
    for (int32_t b = 0; b < blocks; ++b) {
      WebTextBlock block;
      block.origin = Point{40 + static_cast<int32_t>(rng.NextBelow(60)), y};
      block.lines = 4 + static_cast<int32_t>(rng.NextBelow(10));
      block.chars_per_line = 40 + static_cast<int32_t>(rng.NextBelow(80));
      y += block.lines * kGlyphLineHeight + 24;
      p.text.push_back(block);
    }
    // Inline images: 1-4, small to medium (logos, photos, ads).
    int32_t images = 1 + static_cast<int32_t>(rng.NextBelow(4));
    for (int32_t k = 0; k < images; ++k) {
      int32_t w = 80 + static_cast<int32_t>(rng.NextBelow(240));
      int32_t h = 60 + static_cast<int32_t>(rng.NextBelow(160));
      int32_t x = 40 + static_cast<int32_t>(rng.NextBelow(
                           static_cast<uint64_t>(std::max(1, width_ - w - 80))));
      p.images.push_back(WebImageSpec{Rect{x, y, w, h}});
      y += h + 16;
    }
    // The i-Bench-style suite is load-and-click: the mechanical mouse
    // clicks the next link once the page is displayed, with no scrolling
    // inside the measured window. (RenderPage still supports scroll_steps
    // for tests and examples.)
    p.scroll_steps = 0;
    // Content volume: HTML + jpeg-ish images (~1 byte/pixel).
    int64_t image_bytes = 0;
    for (const WebImageSpec& img : p.images) {
      image_bytes += img.rect.area();
    }
    int64_t text_bytes = 0;
    for (const WebTextBlock& block : p.text) {
      text_bytes += static_cast<int64_t>(block.lines) * block.chars_per_line;
    }
    p.content_bytes = 15'000 + text_bytes + image_bytes / 5;
    // Browser layout work scales with page complexity.
    p.layout_cost_us =
        80'000 + 4.0 * static_cast<double>(text_bytes) +
        0.02 * static_cast<double>(image_bytes) + 15'000.0 * p.images.size();
    pages_.push_back(std::move(p));
  }
}

Point WebWorkload::LinkPosition(int32_t index) const {
  Prng rng(Mix(0xC11C4, static_cast<uint64_t>(index)));
  return Point{60 + static_cast<int32_t>(rng.NextBelow(
                        static_cast<uint64_t>(width_ - 120))),
               height_ - 40};
}

std::vector<Pixel> WebWorkload::ImageContent(int32_t page, int32_t image,
                                             int32_t width, int32_t height) {
  std::vector<Pixel> pixels(static_cast<size_t>(width) * height);
  uint64_t base = Mix(static_cast<uint64_t>(page) + 17,
                      static_cast<uint64_t>(image) + 3);
  // Smooth gradient with block-correlated noise: compresses a few-to-one
  // like real graphics, not like synthetic flat color. The red ramp depends
  // on the column only, the green ramp on the row only, and the noise on
  // the 4x4 block, so each is computed once per column, row or block.
  std::vector<uint8_t> red_ramp(static_cast<size_t>(width));
  for (int32_t x = 0; x < width; ++x) {
    red_ramp[static_cast<size_t>(x)] =
        static_cast<uint8_t>(x * 255 / std::max(1, width - 1));
  }
  std::vector<uint64_t> noise(static_cast<size_t>(width + 3) / 4);
  for (int32_t y = 0; y < height; ++y) {
    if (y % 4 == 0) {
      for (size_t bx = 0; bx < noise.size(); ++bx) {
        noise[bx] = Mix(base, (static_cast<uint64_t>(y / 4) << 20) | bx);
      }
    }
    const uint8_t green_ramp = static_cast<uint8_t>(y * 255 / std::max(1, height - 1));
    Pixel* row = pixels.data() + static_cast<size_t>(y) * width;
    for (int32_t x = 0; x < width; ++x) {
      const uint64_t n = noise[static_cast<size_t>(x) / 4];
      // Noise occupies bits 1..5 so mild quantization (RGB565) cannot
      // simply erase it — real photographic detail does not live purely in
      // the lowest bits either.
      const auto r = static_cast<uint8_t>(red_ramp[static_cast<size_t>(x)] ^ (n & 0x7E));
      const auto g = static_cast<uint8_t>(green_ramp ^ ((n >> 5) & 0x7E));
      const auto b = static_cast<uint8_t>(((x + y) & 0xFF) ^ ((n >> 10) & 0x7E));
      row[x] = MakePixel(r, g, b);
    }
  }
  return pixels;
}

std::string WebWorkload::TextLine(int32_t page, int32_t block, int32_t line,
                                  int32_t chars) {
  std::string out;
  out.reserve(static_cast<size_t>(chars));
  uint64_t state = Mix(Mix(static_cast<uint64_t>(page), static_cast<uint64_t>(block)),
                       static_cast<uint64_t>(line));
  while (static_cast<int32_t>(out.size()) < chars) {
    state = Mix(state, out.size());
    const char* word = kWords[state % kWordCount];
    out += word;
    out += ' ';
  }
  out.resize(static_cast<size_t>(chars));
  return out;
}

void WebWorkload::RenderPage(DrawingApi* api, int32_t index,
                             CpuAccount* app_cpu) const {
  const WebPageSpec& spec = pages_[static_cast<size_t>(index)];
  // Browser layout/HTML processing before any drawing.
  if (app_cpu != nullptr) {
    app_cpu->Charge(spec.layout_cost_us);
  }

  const int32_t page_height = height_ + spec.scroll_steps * 120;
  DrawableId page = api->CreatePixmap(width_, page_height);

  // Background and header.
  api->FillRect(page, Rect{0, 0, width_, page_height}, spec.background);
  if (spec.tiled_header) {
    Surface tile(16, 16);
    for (int32_t y = 0; y < 16; ++y) {
      for (int32_t x = 0; x < 16; ++x) {
        uint64_t n = Mix(static_cast<uint64_t>(index),
                         (static_cast<uint64_t>(y) << 8) | static_cast<uint64_t>(x));
        tile.Put(x, y, MakePixel(60 + (n & 0x3F), 80 + ((n >> 6) & 0x3F), 160));
      }
    }
    api->FillTiled(page, Rect{0, 0, width_, 64}, tile, Point{0, 0});
  }

  // Images: rasterized strip-by-strip into their own pixmap, then copied
  // into the page pixmap (the offscreen hierarchy).
  for (size_t k = 0; k < spec.images.size(); ++k) {
    const Rect& r = spec.images[k].rect;
    DrawableId img = api->CreatePixmap(r.width, r.height);
    std::vector<Pixel> content =
        ImageContent(index, static_cast<int32_t>(k), r.width, r.height);
    constexpr int32_t kStrip = 4;  // scanline batches, like image decoders
    for (int32_t y = 0; y < r.height; y += kStrip) {
      int32_t rows = std::min(kStrip, r.height - y);
      api->PutImage(img, Rect{0, y, r.width, rows},
                    std::span<const Pixel>(
                        content.data() + static_cast<size_t>(y) * r.width,
                        static_cast<size_t>(rows) * r.width));
    }
    api->CopyArea(img, page, Rect{0, 0, r.width, r.height}, r.origin());
    api->FreePixmap(img);
  }

  // Text paragraphs.
  for (size_t b = 0; b < spec.text.size(); ++b) {
    const WebTextBlock& block = spec.text[b];
    for (int32_t line = 0; line < block.lines; ++line) {
      std::string text = TextLine(index, static_cast<int32_t>(b), line,
                                  block.chars_per_line);
      api->DrawText(page,
                    Point{block.origin.x,
                          block.origin.y + line * kGlyphLineHeight},
                    text, MakePixel(20, 20, 40));
    }
  }

  // Anti-aliased banner: translucent alpha content composited over the page.
  if (spec.aa_banner) {
    Rect banner{width_ / 4, 8, width_ / 2, 40};
    std::vector<Pixel> argb(static_cast<size_t>(banner.area()));
    for (int32_t y = 0; y < banner.height; ++y) {
      for (int32_t x = 0; x < banner.width; ++x) {
        uint8_t a = static_cast<uint8_t>(40 + (x * 180) / banner.width);
        argb[static_cast<size_t>(y) * banner.width + x] =
            MakePixel(200, 40, 40, a);
      }
    }
    api->CompositeOver(page, banner, argb);
  }

  // Present: copy the visible part of the page pixmap onscreen in slices
  // (the expose/paint pattern).
  const int32_t kSlices = 3;
  for (int32_t s = 0; s < kSlices; ++s) {
    int32_t y0 = s * height_ / kSlices;
    int32_t y1 = (s + 1) * height_ / kSlices;
    api->CopyArea(page, kScreenDrawable, Rect{0, y0, width_, y1 - y0},
                  Point{0, y0});
  }

  // Scroll through the remainder of the page.
  for (int32_t s = 0; s < spec.scroll_steps; ++s) {
    const int32_t dy = 120;
    api->ScrollUp(kScreenDrawable, Rect{0, 0, width_, height_}, dy,
                  spec.background);
    // Newly exposed strip comes from the page pixmap.
    api->CopyArea(page, kScreenDrawable,
                  Rect{0, height_ + s * dy, width_, dy},
                  Point{0, height_ - dy});
  }

  api->FreePixmap(page);
}

}  // namespace thinc
