/**
 * @file
 * Shared wire constants and the TCP frame codec of the campaign
 * worker protocol.
 *
 * The grammar itself is documented in campaign.h; this header only
 * pins the literal bytes that the coordinator (campaign.cc), the
 * worker service (serve.cc) and the transports (transport.cc) must
 * agree on.
 */

#ifndef AITAX_SWEEP_PROTOCOL_H
#define AITAX_SWEEP_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace aitax::sweep {

/** Worker banner of protocol v2 ("spec" addressing, "hb" liveness). */
inline constexpr const char *kWorkerBannerV2 =
    "aitax-sweep-worker-v2 ready";

/** Checkpoint manifest header magic (identity line follows). */
inline constexpr const char *kManifestMagic = "aitax-campaign-v1";

/**
 * Upper bound on one TCP frame's payload (a single protocol line). A
 * larger length prefix means a corrupt or non-protocol peer; both
 * sides drop the connection, which the coordinator treats like any
 * other worker loss (chunk re-dispatch).
 */
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/**
 * Append @p line to @p wire as one TCP frame: its payload length as 4
 * big-endian bytes, then the line bytes (no terminator).
 */
inline void
appendFrame(std::string &wire, std::string_view line)
{
    const auto len = static_cast<std::uint32_t>(line.size());
    for (int shift = 24; shift >= 0; shift -= 8)
        wire += static_cast<char>((len >> shift) & 0xff);
    wire.append(line);
}

enum class FrameStatus
{
    Complete,   ///< one frame decoded into the line and consumed
    Incomplete, ///< the first frame needs more bytes
    Corrupt,    ///< length prefix above kMaxFramePayload
};

/**
 * Decode the first frame buffered in @p raw. On Complete its payload
 * is assigned to @p line and the frame is erased from @p raw; on any
 * other status both are left as they were.
 */
inline FrameStatus
takeFrame(std::string &raw, std::string &line)
{
    if (raw.size() < 4)
        return FrameStatus::Incomplete;
    std::uint32_t len = 0;
    for (std::size_t i = 0; i < 4; ++i)
        len = (len << 8) | static_cast<unsigned char>(raw[i]);
    if (len > kMaxFramePayload)
        return FrameStatus::Corrupt;
    if (raw.size() - 4 < len)
        return FrameStatus::Incomplete;
    line.assign(raw, 4, len);
    raw.erase(0, 4 + static_cast<std::size_t>(len));
    return FrameStatus::Complete;
}

} // namespace aitax::sweep

#endif // AITAX_SWEEP_PROTOCOL_H
