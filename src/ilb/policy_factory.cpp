#include "ilb/policy.hpp"

#include "ilb/policies/diffusion.hpp"
#include "ilb/policies/gradient.hpp"
#include "ilb/policies/master.hpp"
#include "ilb/policies/multilist.hpp"
#include "ilb/policies/null_policy.hpp"
#include "ilb/policies/sfc.hpp"
#include "ilb/policies/work_stealing.hpp"
#include "support/assert.hpp"

namespace prema::ilb {

namespace {

template <class P>
std::unique_ptr<Policy> construct() {
  return std::make_unique<P>();
}

struct Registered {
  const char* name;
  std::unique_ptr<Policy> (*make)();
};

/// The policy registry: name -> constructor, in documentation order.
constexpr Registered kPolicies[] = {
    {"null", construct<NullPolicy>},
    {"work_stealing", construct<WorkStealingPolicy>},
    {"diffusion", construct<DiffusionPolicy>},
    {"gradient", construct<GradientPolicy>},
    {"master", construct<MasterPolicy>},
    {"multilist", construct<MultiListPolicy>},
    {"sfc", construct<SfcPolicy>},
};

}  // namespace

std::vector<std::string> policy_names() {
  std::vector<std::string> names;
  for (const Registered& p : kPolicies) names.emplace_back(p.name);
  return names;
}

std::unique_ptr<Policy> make_policy(const std::string& name) {
  for (const Registered& p : kPolicies) {
    if (name == p.name) return p.make();
  }
  PREMA_CHECK_MSG(false, "unknown balancing policy name");
  return nullptr;
}

}  // namespace prema::ilb
