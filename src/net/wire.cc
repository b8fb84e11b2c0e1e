#include "net/wire.h"

#include <bit>
#include <cstring>

namespace subex {

// Words are copied in host order, which is the wire's order only on a
// little-endian host; a big-endian port needs byte swaps here and in the
// reader below.
static_assert(std::endian::native == std::endian::little,
              "the wire codec copies host words as little-endian bytes");

void WireWriter::Append(const void* data, std::size_t n) {
  if (n == 0) return;  // An empty vector's data() may be null.
  const std::size_t at = bytes_.size();
  bytes_.resize(at + n);
  std::memcpy(bytes_.data() + at, data, n);
}

void WireWriter::PutU16(std::uint16_t v) { Append(&v, sizeof(v)); }

void WireWriter::PutU32(std::uint32_t v) { Append(&v, sizeof(v)); }

void WireWriter::PutU64(std::uint64_t v) { Append(&v, sizeof(v)); }

void WireWriter::PutDouble(double v) { Append(&v, sizeof(v)); }

void WireWriter::PutString(const std::string& s) {
  PutU32(static_cast<std::uint32_t>(s.size()));
  Append(s.data(), s.size());
}

void WireWriter::PutDoubles(std::span<const double> v) {
  PutU32(static_cast<std::uint32_t>(v.size()));
  Append(v.data(), v.size() * sizeof(double));
}

bool WireReader::Take(std::size_t n, const std::uint8_t** out) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_ + pos_;
  pos_ += n;
  return true;
}

std::uint8_t WireReader::GetU8() {
  const std::uint8_t* p = nullptr;
  return Take(1, &p) ? *p : 0;
}

template <typename T>
T WireReader::GetWord() {
  const std::uint8_t* p = nullptr;
  T v{};
  if (Take(sizeof(T), &p)) std::memcpy(&v, p, sizeof(T));
  return v;
}

std::uint16_t WireReader::GetU16() { return GetWord<std::uint16_t>(); }

std::uint32_t WireReader::GetU32() { return GetWord<std::uint32_t>(); }

std::uint64_t WireReader::GetU64() { return GetWord<std::uint64_t>(); }

double WireReader::GetDouble() { return GetWord<double>(); }

std::string WireReader::GetString() {
  const std::uint32_t n = GetU32();
  if (n > remaining()) {
    ok_ = false;
    return {};
  }
  const std::uint8_t* p = nullptr;
  if (!Take(n, &p)) return {};
  return std::string(reinterpret_cast<const char*>(p), n);
}

std::vector<double> WireReader::GetDoubles() {
  const std::uint32_t n = GetU32();
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(double);
  const std::uint8_t* p = nullptr;
  // Take rejects a count the payload cannot hold before anything is
  // allocated.
  if (!Take(bytes, &p)) return {};
  std::vector<double> v(n);
  if (n != 0) std::memcpy(v.data(), p, bytes);
  return v;
}

}  // namespace subex
