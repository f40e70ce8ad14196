// Fixture: a FaultKind switch hiding behind a default label. The default
// eats the -Werror=switch exhaustiveness guarantee — a newly added fault
// kind would silently fall through instead of failing the build — so
// pran-lint must flag it [fault-switch-default].

namespace fixture {

enum class FaultKind { kCrash, kDegrade };

inline const char* fault_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    default:
      return "other";
  }
}

}  // namespace fixture
