/**
 * @file
 * 64-bit FNV-1a: the hash behind every end-state fingerprint and the
 * streaming-telemetry map hash. (The checkpoint codec's 32-bit FNV is
 * a wire format of its own and stays with it.)
 */

#ifndef HARMONIA_COMMON_FNV_H_
#define HARMONIA_COMMON_FNV_H_

#include <cstdint>
#include <string_view>

namespace harmonia {

/** Incremental FNV-1a-64: fold bytes in, read value() at any point. */
class Fnv1a64 {
  public:
    Fnv1a64 &byte(std::uint8_t b)
    {
        hash_ = (hash_ ^ b) * 0x100000001b3ULL;
        return *this;
    }
    /** The bytes of @p s, nothing else. */
    Fnv1a64 &bytes(std::string_view s)
    {
        for (const char c : s)
            byte(static_cast<std::uint8_t>(c));
        return *this;
    }
    /** The bytes of @p s and a NUL, so adjacent strings cannot alias. */
    Fnv1a64 &str(std::string_view s) { return bytes(s).byte(0); }
    /** The four bytes of @p w, least significant first. */
    Fnv1a64 &u32(std::uint32_t w) { return le(w, 4); }
    /** The eight bytes of @p v, least significant first. */
    Fnv1a64 &u64(std::uint64_t v) { return le(v, 8); }

    std::uint64_t value() const { return hash_; }

  private:
    Fnv1a64 &le(std::uint64_t v, unsigned n)
    {
        for (unsigned b = 0; b < n; ++b)
            byte(static_cast<std::uint8_t>(v >> (8 * b)));
        return *this;
    }

    std::uint64_t hash_ = 0xcbf29ce484222325ULL;  ///< offset basis
};

} // namespace harmonia

#endif // HARMONIA_COMMON_FNV_H_
