#include "sat/clause.h"

#include "common/string_util.h"

namespace treewm::sat {

std::string Lit::ToString() const {
  if (code_ < 0) return "lit?";
  return StrFormat("%sx%d", negated() ? "~" : "", var());
}

}  // namespace treewm::sat
