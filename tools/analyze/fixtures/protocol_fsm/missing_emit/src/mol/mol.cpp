// Seeded violation: the migrate transition performs its declared writes but
// never records the bound kMigrationOut trace event.
void Mol::migrate_locked(Ptr ptr, int dst) {
  local_.erase(ptr);
  forwarding_[ptr] = dst;
}
