// Lint fixture: must trip [fault-bypass] and nothing else.

struct Executor {
  void fail_server(int id);
  void restore_server(int id);
  void degrade_server(int id, double factor);
  void restore_speed(int id);
};

void knock_one_out(Executor& executor, Executor* remote) {
  // Direct executor mutation: bypasses the injector's fault log + idempotence.
  executor.fail_server(3);
  executor.degrade_server(1, 0.5);
  remote->restore_server(3);
  remote->restore_speed(1);
}

void these_are_fine() {
  // A plain identifier and a different method name must NOT fire.
  int fail_server = 0;
  (void)fail_server;
}
