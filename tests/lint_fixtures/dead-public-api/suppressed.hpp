// Dead-public-api suppression fixture; linted as src/widget/api.hpp with no
// consumer: the in-place justification absorbs the finding into the budget.
#pragma once

namespace pl::widget {

// pl-lint: allow(dead-public-api) fixture: reserved extension point called
// by generated bindings outside this repo
inline int helper_answer() { return 42; }

// The finding anchors at the declarator line, one below `template`, so the
// justification sits between the two to reach it.
template <typename T>
// pl-lint: allow(dead-public-api) fixture: reached only through a macro
// expansion the token scan cannot see
T helper_twice(T value) { return value + value; }

}  // namespace pl::widget
