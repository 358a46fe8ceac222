/**
 * @file
 * Thermal throttling model.
 *
 * The paper's methodology section notes that mobile SoCs are
 * particularly susceptible to thermal throttling (their runs wait for
 * a 33 C idle temperature). This simple RC model lets experiments
 * reproduce — or deliberately avoid — that effect.
 */

#ifndef AITAX_SOC_THERMAL_H
#define AITAX_SOC_THERMAL_H

#include "sim/simulator.h"
#include "soc/soc_config.h"

namespace aitax::soc {

/**
 * Lumped thermal state with exponential cooling.
 */
class ThermalModel
{
  public:
    ThermalModel(const ThermalConfig &cfg, sim::Simulator &sim);

    /** Add heat for busy compute time (in seconds of big-core work). */
    void addHeat(double busy_sec);

    /** Current heat level (after lazy cooling). */
    double heatLevel();

    /**
     * Clock multiplier in (0, 1]; 1.0 when cool. Ramps linearly from
     * 1.0 at the throttle threshold down to throttledFactor at twice
     * the threshold.
     */
    double speedFactor();

    /**
     * Fault-injection hook: an external thermal emergency (charging,
     * sunlight, camera ISP load) dumps @p heat_spike heat units into
     * the model immediately. Force-enables the model so throttling
     * takes effect even on presets that run with thermal disabled.
     */
    void triggerEmergency(double heat_spike);

    /** Reset to cold. */
    void reset();

    /** Whether the model is on; triggerEmergency() can turn it on. */
    bool enabled() const { return cfg.enabled; }

    /**
     * Raw model state for warm-up prefix snapshots. The enabled flag
     * is part of the state because triggerEmergency() force-enables a
     * disabled model — it is mutable at runtime, not pure config.
     */
    struct State
    {
        bool enabled = false;
        double heat = 0.0;
        sim::TimeNs lastUpdate = 0;
    };

    State state() const { return {cfg.enabled, heat, lastUpdate}; }

    void
    setState(const State &s)
    {
        cfg.enabled = s.enabled;
        heat = s.heat;
        lastUpdate = s.lastUpdate;
    }

  private:
    ThermalConfig cfg;
    sim::Simulator &sim;
    double heat = 0.0;
    sim::TimeNs lastUpdate = 0;

    void cool();
};

} // namespace aitax::soc

#endif // AITAX_SOC_THERMAL_H
