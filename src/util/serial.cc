#include "util/serial.h"

namespace kucnet {

uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

Status ByteReader::Raw(void* p, size_t n, const char* what) {
  if (failed_ || remaining() < n) {
    failed_ = true;
    return ErrorStatus() << "truncated input: needed " << n << " bytes for "
                         << what << ", have " << remaining();
  }
  if (p != nullptr) std::memcpy(p, p_, n);
  p_ += n;
  return Status::Ok();
}

Status ByteReader::Str(std::string* s) {
  uint64_t n = 0;
  KUC_RETURN_IF_ERROR(U64(&n));
  if (remaining() < n) {
    failed_ = true;
    return ErrorStatus() << "truncated input: string of length " << n
                         << " exceeds remaining " << remaining() << " bytes";
  }
  s->assign(p_, n);
  p_ += n;
  return Status::Ok();
}

}  // namespace kucnet
