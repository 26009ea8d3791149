#include "src/codec/rc4.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace thinc {

Rc4Cipher::Rc4Cipher(std::span<const uint8_t> key) {
  THINC_CHECK(!key.empty() && key.size() <= 256);
  for (int i = 0; i < 256; ++i) {
    s_[i] = static_cast<uint8_t>(i);
  }
  uint8_t j = 0;
  for (int i = 0; i < 256; ++i) {
    j = static_cast<uint8_t>(j + s_[i] + key[i % key.size()]);
    std::swap(s_[i], s_[j]);
  }
}

uint8_t Rc4Cipher::NextKeystreamByte() {
  i_ = static_cast<uint8_t>(i_ + 1);
  j_ = static_cast<uint8_t>(j_ + s_[i_]);
  std::swap(s_[i_], s_[j_]);
  return s_[static_cast<uint8_t>(s_[i_] + s_[j_])];
}

void Rc4Cipher::Process(std::span<const uint8_t> in, std::span<uint8_t> out) {
  THINC_CHECK(out.size() >= in.size());
  // The PRGA runs on local copies: every out[k] store is a uint8_t write
  // that may alias the members, which would force reloading i_ and j_ on
  // every byte.
  uint8_t* const s = s_;
  uint8_t i = i_;
  uint8_t j = j_;
  const uint8_t* src = in.data();
  uint8_t* dst = out.data();
  for (size_t k = 0; k < in.size(); ++k) {
    i = static_cast<uint8_t>(i + 1);
    const uint8_t si = s[i];
    j = static_cast<uint8_t>(j + si);
    const uint8_t sj = s[j];
    s[i] = sj;
    s[j] = si;
    dst[k] = src[k] ^ s[static_cast<uint8_t>(si + sj)];
  }
  i_ = i;
  j_ = j;
}

std::vector<uint8_t> Rc4Cipher::Process(std::span<const uint8_t> in) {
  std::vector<uint8_t> out(in.size());
  Process(in, out);
  return out;
}

}  // namespace thinc
