// acps-fixture-path: src/core/fixture_tg.cc
// acps-expect: no-new-threadgroup
//
// Known-bad twin for no-new-threadgroup: fresh code reaching for the
// removed single-tenant shim instead of opening a comm::Session on a
// comm::Transport.
namespace acps {

void FixtureSpin() {
  comm::ThreadGroup group(4);
  group.Run([](comm::Communicator&) {});
}

}  // namespace acps
