// Alias for sources that still include serve/json.h (perfbench/); the JSON
// module lives in util/json.h.
#pragma once

#include "util/json.h"

namespace emba::serve { namespace json = ::emba::json; }
