// Header layout must not depend on NDEBUG. This translation unit is
// compiled with the OPPOSITE NDEBUG setting to the library
// (tests/CMakeLists.txt), so any public class whose members differ
// between debug and release builds disagrees with the library about
// sizeof and member offsets: PolicySets copied, mutated and evaluated
// across the library boundary, and the members laid out after them in
// SimplePolicyEngine and PolicyBundle, would then read and write the
// wrong bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "car/base_policy.h"
#include "car/table1.h"
#include "core/policy.h"
#include "core/policy_image.h"
#include "core/update.h"

#ifndef PSME_LIBRARY_NDEBUG
#error "PSME_LIBRARY_NDEBUG must say whether the library defines NDEBUG"
#endif
#if defined(NDEBUG) == (PSME_LIBRARY_NDEBUG != 0)
#error "this test must be compiled with the opposite NDEBUG setting to the library"
#endif

namespace psme::core {
namespace {

PolicyRule grant(const std::string& id, const std::string& subject) {
  PolicyRule rule;
  rule.id = id;
  rule.subject = subject;
  rule.object = "asset.b";
  rule.permission = threat::Permission::kRead;
  return rule;
}

AccessRequest read_of(const std::string& subject) {
  return {subject, "asset.b", AccessType::kRead, {}};
}

TEST(NdebugLayout, LibraryBuiltPolicySetsCopyMutateAndEvaluate) {
  // Built by the library, copied and mutated here, evaluated there.
  const PolicySet built = car::full_policy(car::connected_car_threat_model());
  PolicySet copy = built;
  EXPECT_EQ(copy.size(), built.size());
  EXPECT_EQ(copy.name(), built.name());
  copy.add_rule(grant("ndebug.extra", "ep.a"));
  EXPECT_EQ(copy.size(), built.size() + 1);
  EXPECT_TRUE(copy.evaluate(read_of("ep.a")).allowed);
  EXPECT_FALSE(built.evaluate(read_of("ep.a")).allowed);

  std::vector<PolicySet> sets(3, copy);
  sets[1] = built;
  sets.push_back(std::move(copy));
  EXPECT_EQ(sets[0].size(), built.size() + 1);
  EXPECT_EQ(sets[1].size(), built.size());
  EXPECT_TRUE(sets[3].evaluate(read_of("ep.a")).allowed);
  EXPECT_EQ(sets[1].image().fingerprint(), built.image().fingerprint());
}

TEST(NdebugLayout, EngineCountersAfterThePolicySetMatchTheLibrary) {
  PolicySet set("ndebug", 1);
  set.add_rule(grant("allow.a", "ep.a"));
  SimplePolicyEngine engine(set);
  int allowed = 0;
  for (int i = 0; i < 10; ++i) {
    allowed += engine.evaluate(read_of(i % 2 == 0 ? "ep.a" : "ep.z")).allowed;
  }
  EXPECT_EQ(allowed, 5);
  EXPECT_EQ(engine.evaluations(), 10u);
  EXPECT_EQ(engine.denials(), 5u);
  EXPECT_EQ(engine.policy().size(), 1u);
}

TEST(NdebugLayout, BundleFieldsAfterThePolicySetReachTheLibrary) {
  PolicySet base("ndebug", 1);
  base.add_rule(grant("allow.a", "ep.a"));
  SimplePolicyEngine engine(base);
  const PolicySigner oem(0x5EED);
  UpdateManager manager(engine, oem);

  PolicyBundle bundle{base, 0, "oem"};
  bundle.set.set_version(2);
  bundle.set.add_rule(grant("allow.b", "ep.b"));
  bundle.tag = oem.sign(bundle.set);
  EXPECT_FALSE(manager.apply(bundle).has_value());
  EXPECT_EQ(manager.current_version(), 2u);
  EXPECT_TRUE(engine.evaluate(read_of("ep.b")).allowed);
  EXPECT_TRUE(manager.rollback());
  EXPECT_EQ(manager.current_version(), 1u);
  EXPECT_FALSE(engine.evaluate(read_of("ep.b")).allowed);
}

}  // namespace
}  // namespace psme::core
