#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "ilb/policy.hpp"

/// \file probes.hpp
/// Host-time probes for the traced benchmark run. Every probe sits in the
/// benchmark's own code, around a call into one layer's public interface:
/// the forwarding policy and policy context below, the benchmark's mobile
/// objects, handlers and main callbacks, and Runtime::run itself. Nothing
/// inside the program is instrumented.
///
/// Spans are aggregated in memory per layer (calls, total, self) and printed
/// when the run ends. A layer's self time is its spans' duration minus the
/// part covered by child spans, so the run span's self time is the host time
/// the runtime spent in code no probe covers (event queue, DMCS, MOL routing,
/// scheduler, termination detection). The emulator is single-threaded, so
/// one stack of open spans suffices.

namespace perfbench {

enum class Layer : std::uint8_t {
  kRun,         ///< Runtime::run / run_service
  kMain,        ///< the benchmark's main callback on one rank
  kArrival,     ///< one unit or request entering the system
  kHandler,     ///< the benchmark's object handler (work-unit body)
  kRecord,      ///< recording one completion in the latency ledger
  kMessage,     ///< Context::message
  kPolicy,      ///< one call into the balancing policy
  kPolicySend,  ///< PolicyContext::send_policy
  kMigratable,  ///< PolicyContext::migratable
  kMigrate,     ///< PolicyContext::migrate_object
  kPack,        ///< MobileObject::serialize
  kUnpack,      ///< the mobile-object factory
  kCount
};

struct LayerTime {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

using LayerTimes = std::array<LayerTime, static_cast<std::size_t>(Layer::kCount)>;

class Spans {
 public:
  void begin(Layer layer) { open_.push_back({layer, Clock::now(), 0.0}); }

  void end() {
    const Open o = open_.back();
    open_.pop_back();
    const double dur = std::chrono::duration<double>(Clock::now() - o.t0).count();
    LayerTime& lt = times_[static_cast<std::size_t>(o.layer)];
    ++lt.calls;
    lt.total_s += dur;
    lt.self_s += dur - o.child_s;
    if (!open_.empty()) open_.back().child_s += dur;
  }

  [[nodiscard]] const LayerTimes& times() const { return times_; }

 private:
  using Clock = std::chrono::steady_clock;
  struct Open {
    Layer layer;
    Clock::time_point t0;
    double child_s;
  };
  std::vector<Open> open_;
  LayerTimes times_{};
};

/// The recorder of the traced run in progress; null while untraced, which
/// turns every probe into one pointer test.
inline Spans* g_spans = nullptr;

class Scope {
 public:
  explicit Scope(Layer layer) : spans_(g_spans) {
    if (spans_ != nullptr) spans_->begin(layer);
  }
  ~Scope() {
    if (spans_ != nullptr) spans_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
};

/// PolicyContext that forwards to the balancer's own and times the three
/// calls that do layer work: migrate_object, send_policy and migratable.
class TimedContext final : public prema::ilb::PolicyContext {
 public:
  explicit TimedContext(prema::ilb::PolicyContext& inner) : in_(inner) {}

  [[nodiscard]] prema::ProcId rank() const override { return in_.rank(); }
  [[nodiscard]] int nprocs() const override { return in_.nprocs(); }
  [[nodiscard]] double now() const override { return in_.now(); }
  [[nodiscard]] prema::util::Rng& rng() override { return in_.rng(); }
  [[nodiscard]] double local_load() const override { return in_.local_load(); }
  [[nodiscard]] double low_watermark() const override { return in_.low_watermark(); }
  [[nodiscard]] double donate_threshold() const override {
    return in_.donate_threshold();
  }
  [[nodiscard]] std::vector<prema::ilb::Scheduler::ObjectLoad> migratable()
      const override {
    Scope s(Layer::kMigratable);
    return in_.migratable();
  }
  void migrate_object(const prema::mol::MobilePtr& ptr, prema::ProcId dst) override {
    Scope s(Layer::kMigrate);
    in_.migrate_object(ptr, dst);
  }
  void send_policy(prema::ProcId dst, prema::ilb::PolicyTag tag,
                   std::vector<std::uint8_t> body) override {
    Scope s(Layer::kPolicySend);
    in_.send_policy(dst, tag, std::move(body));
  }
  void charge_seconds(double seconds) override { in_.charge_seconds(seconds); }
  void request_poll_after(double seconds) override { in_.request_poll_after(seconds); }
  [[nodiscard]] bool peer_degraded(prema::ProcId p) const override {
    return in_.peer_degraded(p);
  }
  [[nodiscard]] bool topology_enabled() const override { return in_.topology_enabled(); }
  [[nodiscard]] std::optional<prema::mol::Coords> object_coords(
      const prema::mol::MobilePtr& ptr) const override {
    return in_.object_coords(ptr);
  }
  [[nodiscard]] std::vector<prema::mol::CommEdge> comm_edges() const override {
    return in_.comm_edges();
  }
  [[nodiscard]] std::vector<prema::mol::ProcTraffic> proc_traffic() const override {
    return in_.proc_traffic();
  }
  [[nodiscard]] prema::ProcId object_location(
      const prema::mol::MobilePtr& ptr) const override {
    return in_.object_location(ptr);
  }
  [[nodiscard]] std::vector<prema::ilb::GossipSummary> gossip() const override {
    return in_.gossip();
  }
  void trace_sfc_cut(std::size_t segments, double imbalance) override {
    in_.trace_sfc_cut(segments, imbalance);
  }
  void trace_cluster_merge(prema::ProcId dst, std::size_t objects,
                           double traffic) override {
    in_.trace_cluster_merge(dst, objects, traffic);
  }

 private:
  prema::ilb::PolicyContext& in_;
};

/// Policy that forwards every event to the wrapped policy, handing it a
/// TimedContext, and times the call. Reports the wrapped policy's name, so
/// trace output is unchanged.
class TimedPolicy final : public prema::ilb::Policy {
 public:
  explicit TimedPolicy(std::unique_ptr<prema::ilb::Policy> inner)
      : in_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const override { return in_->name(); }
  void init(prema::ilb::PolicyContext& ctx) override {
    Scope s(Layer::kPolicy);
    TimedContext tc(ctx);
    in_->init(tc);
  }
  void on_poll(prema::ilb::PolicyContext& ctx) override {
    Scope s(Layer::kPolicy);
    TimedContext tc(ctx);
    in_->on_poll(tc);
  }
  void on_message(prema::ilb::PolicyContext& ctx, prema::ProcId from,
                  prema::ilb::PolicyTag tag, prema::util::ByteReader& body) override {
    Scope s(Layer::kPolicy);
    TimedContext tc(ctx);
    in_->on_message(tc, from, tag, body);
  }
  void on_work_arrived(prema::ilb::PolicyContext& ctx) override {
    Scope s(Layer::kPolicy);
    TimedContext tc(ctx);
    in_->on_work_arrived(tc);
  }
  [[nodiscard]] bool wants_topology() const override { return in_->wants_topology(); }
  void on_gossip(prema::ilb::PolicyContext& ctx,
                 const prema::ilb::GossipSummary& g) override {
    Scope s(Layer::kPolicy);
    TimedContext tc(ctx);
    in_->on_gossip(tc, g);
  }

 private:
  std::unique_ptr<prema::ilb::Policy> in_;
};

}  // namespace perfbench
