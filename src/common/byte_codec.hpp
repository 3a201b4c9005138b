#pragma once

/**
 * @file
 * The little-endian byte codec shared by the binary formats of this
 * project: the cachestore log (frames and record payloads) and cosad's
 * compact record of a finished job.
 *
 * Fixed-width integers and doubles are little-endian (a double is its
 * raw IEEE bits, so it round-trips bit-exactly: NaN payloads, -0.0 and
 * infinities included). Variable-size integers are LEB128 varints,
 * zigzag-mapped when signed, since counters, bounds and lengths are
 * almost always small. Strings are a varint length plus the bytes.
 *
 * Writers append to a std::string; Cursor reads one buffer with bounds
 * checks and never throws: a short or malformed read clears `ok` and
 * yields zeros, so a decoder checks `ok` once at the end.
 */

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace cosa {
namespace codec {

/** On a little-endian host the codec is a plain memcpy; the shift
 *  loops are the portable fallback. */
inline constexpr bool kLittleEndianHost =
    std::endian::native == std::endian::little;

inline void
putU32(std::string& out, std::uint32_t v)
{
    char bytes[4];
    if constexpr (kLittleEndianHost) {
        std::memcpy(bytes, &v, 4);
    } else {
        for (int i = 0; i < 4; ++i)
            bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    out.append(bytes, 4);
}

inline void
putU64(std::string& out, std::uint64_t v)
{
    char bytes[8];
    if constexpr (kLittleEndianHost) {
        std::memcpy(bytes, &v, 8);
    } else {
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    out.append(bytes, 8);
}

/** LEB128. */
inline void
putVarint(std::string& out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7F) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

/** Zigzag + LEB128 (small negatives stay small). */
inline void
putI64(std::string& out, std::int64_t v)
{
    putVarint(out, (static_cast<std::uint64_t>(v) << 1) ^
                       static_cast<std::uint64_t>(v >> 63));
}

inline void
putDouble(std::string& out, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

inline void
putString(std::string& out, std::string_view s)
{
    putVarint(out, s.size());
    out.append(s);
}

inline void
putDoubles(std::string& out, const std::vector<double>& values)
{
    putVarint(out, values.size());
    for (double v : values)
        putDouble(out, v);
}

/** Bounds-checked sequential reader over one buffer. */
struct Cursor
{
    const unsigned char* data;
    std::size_t size;
    std::size_t pos = 0;
    bool ok = true;

    explicit Cursor(std::string_view bytes)
        : data(reinterpret_cast<const unsigned char*>(bytes.data())),
          size(bytes.size())
    {
    }

    bool
    take(std::size_t n, const unsigned char** out)
    {
        if (!ok || size - pos < n) {
            ok = false;
            return false;
        }
        *out = data + pos;
        pos += n;
        return true;
    }

    std::uint32_t
    u32()
    {
        const unsigned char* p = nullptr;
        if (!take(4, &p))
            return 0;
        std::uint32_t v = 0;
        if constexpr (kLittleEndianHost) {
            std::memcpy(&v, p, 4);
        } else {
            for (int i = 3; i >= 0; --i)
                v = (v << 8) | p[i];
        }
        return v;
    }

    std::uint64_t
    u64()
    {
        const unsigned char* p = nullptr;
        if (!take(8, &p))
            return 0;
        std::uint64_t v = 0;
        if constexpr (kLittleEndianHost) {
            std::memcpy(&v, p, 8);
        } else {
            for (int i = 7; i >= 0; --i)
                v = (v << 8) | p[i];
        }
        return v;
    }

    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        // One byte covers the common case (counters, lengths, bounds);
        // the tail loop handles the rest up to the 10-byte maximum.
        if (!ok || pos >= size) {
            ok = false;
            return 0;
        }
        std::uint8_t b = data[pos++];
        if ((b & 0x80) == 0)
            return b;
        v = b & 0x7F;
        for (int shift = 7; shift < 64; shift += 7) {
            if (pos >= size) {
                ok = false;
                return 0;
            }
            b = data[pos++];
            v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
            if ((b & 0x80) == 0)
                return v;
        }
        ok = false; // > 10 bytes: not a varint
        return 0;
    }

    std::int64_t
    i64()
    {
        const std::uint64_t z = varint();
        return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::uint8_t
    u8()
    {
        const unsigned char* p = nullptr;
        if (!take(1, &p))
            return 0;
        return *p;
    }

    std::string
    str()
    {
        const std::uint64_t n = varint();
        const unsigned char* p = nullptr;
        if (n > size || !take(n, &p))
            return std::string();
        return std::string(reinterpret_cast<const char*>(p), n);
    }

    std::vector<double>
    doubles()
    {
        const std::uint64_t n = varint();
        std::vector<double> out;
        if (!ok || n > size / 8 + 1) {
            ok = false;
            return out;
        }
        if constexpr (kLittleEndianHost) {
            const unsigned char* p = nullptr;
            if (!take(n * sizeof(double), &p))
                return out;
            out.resize(n);
            if (n > 0) // memcpy into an empty vector's null data() is UB
                std::memcpy(out.data(), p, n * sizeof(double));
            return out;
        }
        out.reserve(n);
        for (std::uint32_t i = 0; i < n && ok; ++i)
            out.push_back(f64());
        return out;
    }
};

} // namespace codec
} // namespace cosa
