// Seeded violation: term_consider_wave bumps the running tally itself, so
// sent_sum no longer equals the sum of the per-rank slots that
// term_record_report maintains it from.
void Runtime::term_record_report(ProcId p, std::int64_t sent, std::int64_t recv) {
  auto& c = *term_;
  c.reported += (sent >= 0 ? 1 : 0) - (c.sent[p] >= 0 ? 1 : 0);
  c.sent_sum += sent - c.sent[p];
  c.recv_sum += recv - c.recv[p];
  c.sent[p] = sent;
  c.recv[p] = recv;
}

void Runtime::term_consider_wave(NodeRt& r0, std::int64_t in_flight) {
  auto& c = *term_;
  if (c.reported < nprocs_) return;
  c.sent_sum += in_flight;
  if (c.sent_sum != c.recv_sum) return;
  term_start_wave(r0, c.sent_sum);
}
