// Fixture: prose that quotes the directive syntax declares nothing. Write
// `// pl-lint: allow(nondet-rand)` above a statement to silence it there,
// or `// pl-lint: det-ok(reason)` above a function for the taint pass.
/// A doc comment can quote it too: `pl-lint: allow-file(nondet-rand)`.
// pl-lint: the analyzer's name alone is not a directive either.
#include <cstdlib>

int draw() { return std::rand(); }
