/**
 * @file
 * Table II platform presets: the four Snapdragon systems the paper
 * characterizes, with their Adreno GPUs and Hexagon DSPs.
 */

#ifndef AITAX_SOC_CHIPSETS_H
#define AITAX_SOC_CHIPSETS_H

#include <string_view>
#include <vector>

#include "soc/soc_config.h"

namespace aitax::soc {

/** Open-Q 835 uSOM: Snapdragon 835, Adreno 540, Hexagon 682. */
SocConfig makeSnapdragon835();

/** Google Pixel 3: Snapdragon 845, Adreno 630, Hexagon 685.
 *  The paper's primary measurement platform. */
SocConfig makeSnapdragon845();

/** Snapdragon 855 HDK: Adreno 640, Hexagon 690. */
SocConfig makeSnapdragon855();

/** Snapdragon 865 HDK: Adreno 650, Hexagon 698. */
SocConfig makeSnapdragon865();

/**
 * All four Table II platforms, oldest first: one immutable table per
 * process, built on first use (thread-safe).
 */
const std::vector<SocConfig> &allPlatforms();

/** The table's platform with this SoC name, or nullptr. */
const SocConfig *findPlatform(std::string_view soc_name);

/** Look up a platform by SoC name (e.g. "Snapdragon 845"); aborts on
 *  an unknown name. */
const SocConfig &platformByName(std::string_view soc_name);

} // namespace aitax::soc

#endif // AITAX_SOC_CHIPSETS_H
