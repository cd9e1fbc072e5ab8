// One row of a stats struct's field table: a scalar member, the key it is
// reported under and the rule by which it combines.  A struct's merge,
// cross-rank reduction and JSON serialization loop over its tables (one
// per member type), so each counter is named and given its rule once.
#pragma once

namespace g500::util {

template <typename Struct, typename T, typename Rule>
struct Field {
  const char* key;  ///< report key; '.' separates nested JSON objects
  T Struct::*member;
  Rule rule{};      ///< a row that names no rule takes the first enumerator
};

}  // namespace g500::util
