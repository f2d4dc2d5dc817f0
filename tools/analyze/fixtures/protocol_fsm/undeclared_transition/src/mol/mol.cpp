// Seeded violation: rogue_install mutates the migration directory but is not
// a declared transition in protocols/migration.txt.
void Mol::migrate_locked(Ptr ptr, int dst) {
  local_.erase(ptr);
  forwarding_[ptr] = dst;
  trace_->record(EventKind::kMigrationOut, 1.0, dst, 0);
}

void Mol::rogue_install(Ptr ptr) {
  local_[ptr] = 1;
}
