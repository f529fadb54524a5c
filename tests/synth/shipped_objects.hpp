// The shipped CLI objects under tools/objs/, loaded the way hlcs_synth
// loads them.  Test binaries that include this define HLCS_OBJS_DIR.
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hlcs/synth/parser.hpp"
#include "hlcs/synth/poly.hpp"

namespace hlcs::synth {

/// A shipped CLI object, flattened to a polymorphic object when the file
/// holds several implementations (as hlcs_synth does).
inline ObjectDesc shipped_object(const std::string& file) {
  std::ifstream in(std::string(HLCS_OBJS_DIR) + "/" + file);
  if (!in) fail("cannot open shipped object " + file);
  std::stringstream ss;
  ss << in.rdbuf();
  std::vector<ObjectDesc> parsed = parse_objects(ss.str());
  if (parsed.size() == 1) return std::move(parsed[0]);
  std::vector<const ObjectDesc*> impls;
  for (const ObjectDesc& o : parsed) impls.push_back(&o);
  return make_polymorphic(parsed[0].name() + "_poly", impls, 0);
}

}  // namespace hlcs::synth
