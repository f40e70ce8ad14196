// Lint fixture: must trip [metric-name] and nothing else.
#define PRAN_COUNTER_INC(reg, name)
#define PRAN_GAUGE_SET(reg, name, value)

struct Registry {
  int counter(const char*) { return 0; }
  int gauge(const char*) { return 0; }
};
struct CounterFamily {
  CounterFamily(Registry&, const char*, const char*) {}
};

inline void emit(Registry& r, const char* dynamic) {
  PRAN_COUNTER_INC(r, "deployment.subframes");  // ok: dotted lowercase
  PRAN_COUNTER_INC(r, "DeploymentSubframes");   // bad: camel case, no dot
  PRAN_GAUGE_SET(r, "kpi.", 1.0);               // bad: empty segment
  r.counter("fronthaul.bursts");             // ok
  r.counter(dynamic);                        // ok: not a literal
  r.gauge("late");                           // bad: no subsystem dot
  const CounterFamily per_cell(r, "deployment.cell_misses", "cell");  // ok
  const CounterFamily per_user(r, "deployment.cell_misses", "user");  // bad key
}
