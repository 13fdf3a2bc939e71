#include "shipped.hpp"

#include "analyzer.hpp"
#include "ta/ta.hpp"

namespace mcps::analysis {

void add_shipped_ta_models(Analyzer& a) {
    TaLintOptions pump_opts;
    pump_opts.expected_unreachable = {"Violation"};
    a.check_automaton("pump_lockout", ta::build_pump_lockout_model(),
                      pump_opts);

    TaLintOptions loop_opts;
    loop_opts.expected_unreachable = {"Overdue"};
    a.check_automaton("closed_loop", ta::build_closed_loop_model(),
                      loop_opts);

    TaLintOptions farm_opts;
    farm_opts.expected_unreachable = {"Violation"};
    a.check_automaton("pump_farm_2", ta::build_pump_farm(2), farm_opts);
}

void add_shipped_assemblies(Analyzer& a) {
    using devices::DeviceKind;

    // The PCA closed loop as examples/pca_closed_loop.cpp assembles it.
    AssemblySpec pca;
    pca.name = "pca_closed_loop";
    pca.devices = {
        {{"pump1", DeviceKind::kInfusionPump,
          {"analgesia", "bolus", "remote-stop"}},
         {"ack/pump1", "alarm/pump1", "status/pump1"}},
        {{"oxi1", DeviceKind::kPulseOximeter, {"spo2", "pulse_rate"}},
         {"vitals/bed1/spo2", "vitals/bed1/pulse_rate"}},
        {{"cap1", DeviceKind::kCapnometer, {"etco2", "resp_rate"}},
         {"vitals/bed1/etco2", "vitals/bed1/resp_rate"}},
    };
    pca.apps = {
        {"pca_interlock",
         {{DeviceKind::kInfusionPump, {"remote-stop"}, "pump"},
          {DeviceKind::kPulseOximeter, {"spo2"}, "oximeter"},
          {DeviceKind::kCapnometer, {"etco2"}, "capnometer"}},
         {"vitals/bed1/*", "ack/pump1"}},
    };
    a.check_assembly(pca);

    // The X-ray/ventilator sync assembly (examples/xray_vent_sync.cpp).
    AssemblySpec xv;
    xv.name = "xray_vent_sync";
    xv.devices = {
        {{"vent1", DeviceKind::kVentilator, {"ventilation", "remote-pause"}},
         {"ack/vent1", "alarm/vent1", "status/vent1"}},
        {{"xray1", DeviceKind::kXRay, {"imaging"}},
         {"ack/xray1", "image/xray1", "status/xray1"}},
    };
    xv.apps = {
        {"xray_vent_sync",
         {{DeviceKind::kVentilator, {"remote-pause"}, "ventilator"},
          {DeviceKind::kXRay, {"imaging"}, "x-ray"}},
         {"ack/vent1", "ack/xray1", "image/xray1"}},
    };
    a.check_assembly(xv);
}

}  // namespace mcps::analysis
