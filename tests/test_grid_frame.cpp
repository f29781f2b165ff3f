#include <gtest/gtest.h>

#include <string>

#include "grid/frame.hpp"
#include "support/error.hpp"

namespace islhls {
namespace {

TEST(Frame, construction_and_access) {
    Frame f(4, 3, 1.5);
    EXPECT_EQ(f.width(), 4);
    EXPECT_EQ(f.height(), 3);
    EXPECT_EQ(f.element_count(), 12u);
    EXPECT_EQ(f.at(0, 0), 1.5);
    f.at(3, 2) = 9.0;
    EXPECT_EQ(f.at(3, 2), 9.0);
    EXPECT_THROW(f.at(4, 0), Internal_error);
    EXPECT_THROW(f.at(0, 3), Internal_error);
    EXPECT_THROW(f.at(-1, 0), Internal_error);
    // The message names the coordinates and the frame size, from both
    // overloads.
    const Frame& cf = f;
    for (const bool constant : {false, true}) {
        try {
            if (constant) {
                (void)cf.at(5, -2);
            } else {
                f.at(5, -2) = 0.0;
            }
            ADD_FAILURE() << "no throw";
        } catch (const Internal_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("(5,-2)"), std::string::npos) << what;
            EXPECT_NE(what.find("4x3"), std::string::npos) << what;
        }
    }
}

TEST(Frame, equality_is_elementwise) {
    Frame a(2, 2, 0.0);
    Frame b(2, 2, 0.0);
    EXPECT_EQ(a, b);
    b.at(1, 1) = 1.0;
    EXPECT_NE(a, b);
}

// --- boundary policy behaviour ------------------------------------------------

class Boundary_cases
    : public ::testing::TestWithParam<std::tuple<Boundary, int, int>> {};

TEST_P(Boundary_cases, resolve_stays_in_range_or_flags_zero) {
    const auto [policy, v, n] = GetParam();
    const int r = resolve_coordinate(v, n, policy);
    if (policy == Boundary::zero && (v < 0 || v >= n)) {
        EXPECT_EQ(r, -1);
    } else {
        EXPECT_GE(r, 0);
        EXPECT_LT(r, n);
    }
    if (v >= 0 && v < n) {
        EXPECT_EQ(r, v);  // interior must be identity
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Boundary_cases,
    ::testing::Combine(::testing::Values(Boundary::clamp, Boundary::zero,
                                         Boundary::mirror, Boundary::periodic),
                       ::testing::Values(-7, -1, 0, 3, 4, 5, 11),
                       ::testing::Values(1, 4, 5)));

TEST(Frame, clamp_replicates_edges) {
    EXPECT_EQ(resolve_coordinate(-3, 5, Boundary::clamp), 0);
    EXPECT_EQ(resolve_coordinate(7, 5, Boundary::clamp), 4);
}

TEST(Frame, mirror_reflects_without_repeating_edge) {
    // Sequence for n=4: ... 2 1 | 0 1 2 3 | 2 1 0 1 ...
    EXPECT_EQ(resolve_coordinate(-1, 4, Boundary::mirror), 1);
    EXPECT_EQ(resolve_coordinate(-2, 4, Boundary::mirror), 2);
    EXPECT_EQ(resolve_coordinate(4, 4, Boundary::mirror), 2);
    EXPECT_EQ(resolve_coordinate(5, 4, Boundary::mirror), 1);
    EXPECT_EQ(resolve_coordinate(6, 4, Boundary::mirror), 0);
    EXPECT_EQ(resolve_coordinate(0, 1, Boundary::mirror), 0);
    EXPECT_EQ(resolve_coordinate(-5, 1, Boundary::mirror), 0);
}

TEST(Frame, periodic_wraps_both_directions) {
    EXPECT_EQ(resolve_coordinate(5, 5, Boundary::periodic), 0);
    EXPECT_EQ(resolve_coordinate(-1, 5, Boundary::periodic), 4);
    EXPECT_EQ(resolve_coordinate(-6, 5, Boundary::periodic), 4);
}

TEST(Frame, sample_uses_policy) {
    Frame f(3, 1);
    f.at(0, 0) = 1.0;
    f.at(1, 0) = 2.0;
    f.at(2, 0) = 3.0;
    EXPECT_EQ(f.sample(-1, 0, Boundary::clamp), 1.0);
    EXPECT_EQ(f.sample(-1, 0, Boundary::zero), 0.0);
    EXPECT_EQ(f.sample(-1, 0, Boundary::periodic), 3.0);
    EXPECT_EQ(f.sample(3, 0, Boundary::mirror), 2.0);
    EXPECT_EQ(f.sample(1, 0, Boundary::zero), 2.0);  // interior untouched
}

TEST(Frame, boundary_names) {
    EXPECT_EQ(to_string(Boundary::clamp), "clamp");
    EXPECT_EQ(to_string(Boundary::periodic), "periodic");
}

}  // namespace
}  // namespace islhls
