# Shared byte comparison and JSON check for the bench determinism gates
# (include()d by every bench_*_determinism.cmake). Bench results are a
# pure function of the simulated experiment, but each BENCH_*.json also
# stamps the host it ran on -- core count and the resolved worker count,
# whose default follows the core count -- in one single-line "host"
# object. The comparison drops exactly that line and nothing else: every
# result field, and all of stdout, must still match byte for byte.

# Sets `out` to `text` without its "host" object line.
function(bench_strip_host out text)
  string(REGEX REPLACE "  \"host\": {[^}\n]*},\n" "" stripped "${text}")
  set(${out} "${stripped}" PARENT_SCOPE)
endfunction()

# Fails the gate with `message` unless `a` and `b` are byte-identical
# outside the "host" object.
function(bench_expect_identical a b message)
  bench_strip_host(a_cmp "${a}")
  bench_strip_host(b_cmp "${b}")
  if(NOT a_cmp STREQUAL b_cmp)
    message(FATAL_ERROR "${message}")
  endif()
endfunction()

# Reads the BENCH json at `path` into `out`, failing the gate unless it
# parses as JSON with a "bench" member. string(JSON) needs CMake 3.19; on
# an older CMake (the project minimum is 3.16) the file is only read.
function(bench_read_json out path)
  file(READ "${path}" text)
  if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
    string(JSON bench ERROR_VARIABLE err GET "${text}" bench)
    if(err)
      message(FATAL_ERROR "${path} is not valid JSON: ${err}")
    endif()
  endif()
  set(${out} "${text}" PARENT_SCOPE)
endfunction()
