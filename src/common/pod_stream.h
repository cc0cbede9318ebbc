// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Host-endian POD record IO over std::streams for the same-machine binary
// formats (snapshot envelope, SS/VP trees, sphere store). Parsers check
// every count read from the bytes with CountFits() before sizing anything
// from it, so a corrupt or crafted count fails cleanly instead of driving
// a huge allocation.

#ifndef HYPERDOM_COMMON_POD_STREAM_H_
#define HYPERDOM_COMMON_POD_STREAM_H_

#include <cstdint>
#include <istream>
#include <ostream>

namespace hyperdom {

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

/// Bytes between the read position of `in` and its end; 0 when the
/// stream has failed or cannot seek.
inline uint64_t BytesLeft(std::istream& in) {
  const std::streampos here = in.tellg();
  if (here < 0) return 0;
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  return end > here ? static_cast<uint64_t>(end - here) : 0;
}

/// True iff `count` records of at least `record_bytes` (> 0) each can
/// still be read from `in`. Overflow-safe for any count.
inline bool CountFits(std::istream& in, uint64_t count,
                      uint64_t record_bytes) {
  return count <= BytesLeft(in) / record_bytes;
}

}  // namespace hyperdom

#endif  // HYPERDOM_COMMON_POD_STREAM_H_
