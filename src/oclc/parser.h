// Recursive-descent parser producing the AST. Grammar is the intersection
// of OpenCL C and what the paper's benchmark kernels need: functions,
// scalar/pointer declarations with address-space qualifiers, the full C
// expression grammar (without comma operator and unary * / &), and the
// usual control-flow statements.
#pragma once

#include <memory>

#include "common/status.h"
#include "oclc/ast.h"

namespace haocl::oclc {

// The deepest nesting the parser builds. Each bracket, block, statement
// body, unary or cast operator, ternary branch and assignment right-hand
// side opens one level; an expression's operators count the levels they
// stack below it, so a long `a+a+...` chain counts too. Past the limit the
// build fails with a log naming it. Every later pass (sema, codegen, the
// AST destructor) recurses over the tree, so this bound keeps hostile
// source from overflowing a node's stack. 256 is clang's default bracket
// depth; parsing 256 nested brackets takes about 3 MB of stack under
// AddressSanitizer, well inside a default 8 MB thread stack.
inline constexpr int kMaxNestingDepth = 256;

Expected<std::unique_ptr<TranslationUnit>> Parse(std::string_view source);

}  // namespace haocl::oclc
