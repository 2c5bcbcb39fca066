// Pins the optimizer's chosen plans: the adaptive optimizer's rendering
// of five paper algorithms on cri1, under both sparsity estimators, must
// stay byte-identical. A change to the cost model that moves a plan fails
// here; refresh a golden only for a change meant to move plans.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algorithms/scripts.h"
#include "data/generators.h"
#include "runtime/program_runner.h"

namespace remac {
namespace {

struct Golden {
  const char* name;
  std::string script;
  const char* optimized;
};

TEST(PlanGolden, AdaptivePlansOnCri1UnderMdAndMnc) {
  DataCatalog catalog;
  ASSERT_TRUE(
      RegisterDataset(&catalog, PaperDatasetSpec("cri1").value()).ok());
  // MD and MNC choose the same plan for each of these on cri1.
  const std::vector<Golden> goldens = {
      {"gd", GdScript("cri1", 20),
       R"(A = read("cri1");
b = read("cri1_b");
x = zeros(47, 1);
alpha = 1e-06;
i = 0;
__t3 = (t(A) %*% b);
while ((i < 20)) {
  g = ((t(A) %*% (A %*% x)) - __t3);
  x = fused{M,S,M|t0=mul(i1,i2);t1=sub(i0,t0)}(x, alpha, g);
  i = (i + 1);
}
)"},
      {"dfp", DfpScript("cri1", 20),
       R"(A = read("cri1");
b = read("cri1_b");
x = zeros(47, 1);
H = eye(47);
i = 0;
__t8 = (t(A) %*% b);
while ((i < 20)) {
  g = ((t(A) %*% (A %*% x)) - __t8);
  __t11 = (H %*% g);
  __t7 = (t(A) %*% (A %*% __t11));
  d = (-1 * __t11);
  H = fused{M,M,S,M,S|t0=div(i1,i2);t1=sub(i0,t0);t2=div(i3,i4);t3=add(t1,t2)}(H, ((H %*% __t7) %*% (t(__t7) %*% H)), (t(__t7) %*% (H %*% __t7)), (__t11 %*% t(__t11)), (2 * (t(__t7) %*% __t11)));
  x = fused{M,S,M|t0=mul(i1,i2);t1=add(i0,t0)}(x, 0.5, d);
  i = (i + 1);
}
)"},
      {"bfgs", BfgsScript("cri1", 20),
       R"(A = read("cri1");
b = read("cri1_b");
x = zeros(47, 1);
H = eye(47);
i = 0;
__t14 = (t(A) %*% b);
while ((i < 20)) {
  g = ((t(A) %*% (A %*% x)) - __t14);
  __t18 = (H %*% g);
  __t10 = t(((t(__t18) %*% t(A)) %*% A));
  __t17 = (H %*% __t10);
  __t25 = (t(__t10) %*% __t18);
  d = (-1 * __t18);
  sy = __t25;
  H = fused{M,M,S,M,S,S,M,S,M,S|t0=div(i1,i2);t1=sub(i0,t0);t2=div(i3,i4);t3=sub(t1,t2);t4=mul(i5,i6);t5=div(t4,i7);t6=add(t3,t5);t7=div(i8,i9);t8=add(t6,t7)}(H, (__t18 %*% (t(__t10) %*% H)), __t25, (__t17 %*% t(__t18)), __t25, (t(__t10) %*% __t17), (__t18 %*% t(__t18)), (__t25 * __t25), (__t18 %*% t(__t18)), __t25);
  x = fused{M,S,M|t0=mul(i1,i2);t1=add(i0,t0)}(x, 0.5, d);
  i = (i + 1);
}
)"},
      {"gnmf", GnmfScript("cri1", 10, 20),
       R"(V = read("cri1");
W = rand(120000, 10);
H = rand(10, 47);
i = 0;
while ((i < 20)) {
  H = fused{M,M,M|t0=mul(i0,i1);t1=div(t0,i2)}(H, (t(W) %*% V), ((t(W) %*% W) %*% H));
  W = fused{M,M,M|t0=mul(i0,i1);t1=div(t0,i2)}(W, (V %*% t(H)), (W %*% (H %*% t(H))));
  i = (i + 1);
}
)"},
      {"lr", LogisticRegressionScript("cri1", 20),
       R"(A = read("cri1");
y = read("cri1_b");
x = zeros(47, 1);
alpha = 0.0001;
i = 0;
__t2 = (t(A) %*% y);
while ((i < 20)) {
  p = fused{S,S,S,M|t0=mul(i2,i3);t1=exp(t0);t2=add(i1,t1);t3=div(i0,t2)}(1, 1, -1, (A %*% x));
  g = ((t(A) %*% p) - __t2);
  x = fused{M,S,M|t0=mul(i1,i2);t1=sub(i0,t0)}(x, alpha, g);
  i = (i + 1);
}
)"},
  };
  for (const Golden& golden : goldens) {
    for (EstimatorKind estimator :
         {EstimatorKind::kMetadata, EstimatorKind::kMnc}) {
      SCOPED_TRACE(std::string(golden.name) + " " +
                   EstimatorKindName(estimator));
      RunConfig config;
      config.estimator = estimator;
      config.execute = false;
      auto run = RunScript(golden.script, catalog, config);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->optimized_source, golden.optimized);
    }
  }
}

}  // namespace
}  // namespace remac
