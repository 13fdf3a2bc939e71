/// \file on_demand_assembly.cpp
/// \brief The paper's on-demand certification loop, end to end: a ward
/// assembles a closed-loop PCA system from whatever devices are present,
/// certifies the configuration with the ICE1 assembly lint (the slot
/// assignment Supervisor::deploy makes, over the live registry), deploys
/// only when ICE1 reports no finding, then re-certifies after a
/// configuration change — exactly the re-certification cycle the DAC'10
/// vision calls for.

#include <iostream>

#include "analysis/ice_lint.hpp"
#include "core/core.hpp"
#include "ice/ice.hpp"

using namespace mcps;
using namespace mcps::sim::literals;

namespace {

/// Certify \p app against the bedside inventory: print every ICE1
/// finding; the configuration is deployable when there is none.
bool certify(const ice::DeviceRegistry& registry, const ice::VmdApp& app) {
    const auto findings = analysis::lint_assembly(
        analysis::make_assembly_spec("bedside", registry, {&app}));
    for (const auto& f : findings) std::cout << "  " << f.to_string() << '\n';
    std::cout << "certifiable: " << (findings.empty() ? "YES" : "NO")
              << "\n\n";
    return findings.empty();
}

}  // namespace

int main() {
    sim::Simulation sim{7};
    sim::TraceRecorder trace;
    net::Bus bus{sim, net::ChannelParameters{}};
    physio::Patient patient{
        physio::nominal_parameters(physio::Archetype::kOpioidSensitive)};
    mcps::obs::EventLog events;
    devices::DeviceContext ctx{sim, bus, trace, events};

    // The devices that happen to be at this bedside.
    devices::GpcaPump pump{ctx, "pump1", patient, devices::Prescription{}};
    devices::PulseOximeter oxi{ctx, "oxi1", patient};
    for (devices::Device* d :
         std::initializer_list<devices::Device*>{&pump, &oxi}) {
        d->set_heartbeat_period(2_s);
        d->start();
    }
    ice::DeviceRegistry registry;
    registry.add(pump);
    registry.add(oxi);

    core::PcaInterlock app{ctx, "pca_interlock", core::InterlockConfig{}};

    // --- Attempt 1: dual-sensor interlock, but no capnometer present ----
    certify(registry, app);

    // --- A capnometer is wheeled in; re-certify ---------------------------
    devices::Capnometer cap{ctx, "cap1", patient};
    cap.set_heartbeat_period(2_s);
    cap.start();
    registry.add(cap);
    std::cout << "-- capnometer added to the bedside; re-certifying --\n";

    // --- Deploy only the certified configuration -------------------------
    if (!certify(registry, app)) return 1;
    ice::Supervisor supervisor{ctx, "supervisor1", registry};
    supervisor.start();
    const auto deploy = supervisor.deploy(app);
    std::cout << "deployed: " << (deploy.ok ? "yes" : deploy.error) << " (";
    for (const auto& d : deploy.bound_devices) std::cout << ' ' << d;
    std::cout << " )\n";
    if (!deploy.ok) return 1;

    // Run a short closed-loop session to show it actually operates.
    sim.schedule_periodic(500_ms, [&] { patient.step(0.5); });
    patient.set_infusion_rate(physio::InfusionRate::mg_per_hour(6.0));
    sim.run_for(45_min);
    std::cout << "after 45 min with a runaway co-infusion: interlock state="
              << core::to_string(app.state())
              << " stops=" << app.stats().stops_issued
              << " pump=" << devices::to_string(pump.state()) << '\n';
    return 0;
}
