#include "dev/nvmem.hh"

#include <array>

#include "sim/work.hh"

namespace capy::dev
{

namespace
{

/**
 * Slice-by-8 tables for the reflected IEEE polynomial: row 0 is the
 * bytewise table, and row k advances row k-1 by one more zero byte,
 * so eight bytes fold into the CRC with eight lookups.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

constexpr CrcTables kCrcTables = makeCrcTables();

/** Little-endian 32-bit load, independent of host byte order. */
inline std::uint32_t
loadLe32(const unsigned char *p)
{
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
           std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

} // namespace

std::uint32_t
nvCrc32(const void *data, std::size_t len)
{
    ++sim::workCounts.crcCalls;
    const auto &t = kCrcTables;
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint32_t crc = 0xffffffffu;
    for (; len >= 8; len -= 8, bytes += 8) {
        std::uint32_t lo = crc ^ loadLe32(bytes);
        std::uint32_t hi = loadLe32(bytes + 4);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    if (len >= 4) {
        // A 4-byte step on the first four tables: the 12-byte records
        // of pointer-sized journal cells end with one.
        std::uint32_t lo = crc ^ loadLe32(bytes);
        crc = t[3][lo & 0xffu] ^ t[2][(lo >> 8) & 0xffu] ^
              t[1][(lo >> 16) & 0xffu] ^ t[0][lo >> 24];
        len -= 4;
        bytes += 4;
    }
    for (; len > 0; --len, ++bytes)
        crc = t[0][(crc ^ *bytes) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

void
NvMemory::noteWornOut(std::uint64_t cell_writes)
{
    wornFlag = true;
    capy_warn("non-volatile device '%s' exceeded write endurance "
              "(%llu writes to one cell, rated %llu)",
              deviceName.c_str(),
              static_cast<unsigned long long>(cell_writes),
              static_cast<unsigned long long>(endurance));
}

} // namespace capy::dev
