#include "analysis/audit.hpp"

#include <sstream>

#include "sim/comm.hpp"
#include "util/env.hpp"

namespace picpar::analysis {

std::string AuditResult::summary() const {
  std::ostringstream os;
  os << "determinism audit: " << (deterministic() ? "PASS" : "FAIL")
     << " (fingerprints " << std::hex << fingerprint_first << " / "
     << fingerprint_second << std::dec << ", events " << events_first << " / "
     << events_second << ", findings " << findings << ")";
  return os.str();
}

AuditResult audit_determinism(
    sim::Machine& machine, trace::RunRecord& record, Analyzer& analyzer,
    const std::function<void(sim::Comm&)>& program,
    const std::function<void()>& between_runs) {
  sim::MachineObserver* previous = machine.observer();
  AuditResult out;
  machine.set_observer(&record);
  try {
    machine.run(program);
    analyzer.analyze(record);
    out.fingerprint_first = analyzer.fingerprint();
    out.events_first = analyzer.events();
    if (between_runs) between_runs();
    out.run = machine.run(program);
    analyzer.analyze(record);
    out.fingerprint_second = analyzer.fingerprint();
    out.events_second = analyzer.events();
    out.findings = analyzer.total();
  } catch (...) {
    machine.set_observer(previous);
    throw;
  }
  machine.set_observer(previous);
  return out;
}

bool analyzer_env_enabled() { return env_enabled("PICPAR_ANALYZE"); }

}  // namespace picpar::analysis
