/**
 * @file
 * Shared wire constants for the campaign worker protocol.
 *
 * The grammar itself is documented in campaign.h; this header only
 * pins the literal bytes that the coordinator (campaign.cc), the
 * worker service (serve.cc) and the transports (transport.cc) must
 * agree on.
 */

#ifndef AITAX_SWEEP_PROTOCOL_H
#define AITAX_SWEEP_PROTOCOL_H

#include <cstdint>

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

} // namespace aitax::sweep

#endif // AITAX_SWEEP_PROTOCOL_H
