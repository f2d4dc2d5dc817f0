// Seeded violation: library code reachable from the simulated event loop
// reading the host's wall clock. The conventions pass's determinism rule
// is the one check for it.
double jitter_seed() {
  return static_cast<double>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}
