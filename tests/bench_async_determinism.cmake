# Acceptance gate for the barrier-free async ablation: virtual-time results
# are a pure function of the workload and config, so ablation_async (and
# the BENCH_async.json it writes) must be byte-identical across --jobs,
# --workers and reruns; every cell must converge; and the async gang on
# the CLI driver must be deterministic across worker counts while
# rejecting protocols whose handlers cannot run barrier-free.
# Run via ctest:
#   cmake -DBENCH_DIR=<build>/bench -P bench_async_determinism.cmake
if(NOT DEFINED BENCH_DIR)
  message(FATAL_ERROR "pass -DBENCH_DIR=<dir with bench binaries>")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/bench_compare.cmake)

set(flags --quick)

# --jobs=1 vs --jobs=4, a --workers=2 run, plus a repeat of --jobs=1: all
# byte-identical, on stdout and in the emitted JSON outside its "host"
# object (which stamps the resolved worker count, on purpose).
foreach(run jobs1 jobs4 workers2 jobs1_again)
  set(extra "")
  if(run STREQUAL jobs4)
    set(extra --jobs=4)
  elseif(run STREQUAL workers2)
    set(extra --workers=2)
  else()
    set(extra --jobs=1)
  endif()
  execute_process(
    COMMAND ${BENCH_DIR}/ablation_async ${flags} ${extra}
    WORKING_DIRECTORY ${BENCH_DIR}
    OUTPUT_VARIABLE out_${run}
    ERROR_VARIABLE err_${run}
    RESULT_VARIABLE rc_${run})
  if(NOT rc_${run} EQUAL 0)
    message(FATAL_ERROR
      "ablation_async (${run}) failed (${rc_${run}}): ${err_${run}}")
  endif()
  bench_read_json(json_${run} ${BENCH_DIR}/BENCH_async.json)
endforeach()
foreach(run jobs4 workers2 jobs1_again)
  bench_expect_identical("${out_jobs1}" "${out_${run}}"
    "ablation_async: stdout differs between --jobs=1 and ${run}")
  bench_expect_identical("${json_jobs1}" "${json_${run}}"
    "BENCH_async.json differs between --jobs=1 and ${run}")
endforeach()
message(STATUS
  "ablation_async: byte-identical across --jobs, --workers and reruns")

# The matrix must show the headline phenomena even at --quick scale: every
# cell converged, and async winning the straggler columns outright.
string(REGEX MATCH "\"all_converged\": true" converged "${json_jobs1}")
if(NOT converged)
  message(FATAL_ERROR "BENCH_async.json: not every cell converged")
endif()
string(REGEX MATCH
       "\"async_wins_straggler_cells\": ([0-9]+),\n  \"straggler_cells\": ([0-9]+)"
       wins "${json_jobs1}")
if(NOT wins OR NOT CMAKE_MATCH_1 EQUAL CMAKE_MATCH_2 OR
   CMAKE_MATCH_2 EQUAL 0)
  message(FATAL_ERROR
    "BENCH_async.json: async won ${CMAKE_MATCH_1}/${CMAKE_MATCH_2} "
    "straggler cells; expected a clean sweep")
endif()
message(STATUS
  "ablation_async: all cells converged; async swept the straggler column")

# CLI smoke: a barrier-free run on the driver must converge, report async
# progress, and be byte-identical across --workers. --workers=4 does not
# exceed the 4 simulated nodes, and the 1-node sequential baseline runs on
# one worker, so nothing may warn about clamping.
set(runner ${BENCH_DIR}/../tools/updsm_run)
set(common --app=sor-async --protocol=async-u --gang=async --nodes=4
    --scale=0.25 --faults=drop=0.2 --fault-seed=9)
execute_process(COMMAND ${runner} ${common} --workers=1
                OUTPUT_VARIABLE out_w1 ERROR_VARIABLE err_w1
                RESULT_VARIABLE rc_w1)
execute_process(COMMAND ${runner} ${common} --workers=4
                OUTPUT_VARIABLE out_w4 ERROR_VARIABLE err_w4
                RESULT_VARIABLE rc_w4)
if(NOT rc_w1 EQUAL 0 OR NOT rc_w4 EQUAL 0)
  message(FATAL_ERROR "updsm_run --gang=async smoke failed to run")
endif()
bench_expect_identical("${out_w1}" "${out_w4}"
  "updsm_run: --gang=async output differs between --workers=1 and 4")
foreach(err "${err_w1}" "${err_w4}")
  if(err MATCHES "clamping")
    message(FATAL_ERROR "updsm_run: spurious worker clamp warning: ${err}")
  endif()
endforeach()
if(NOT out_w1 MATCHES "async[ ]+[0-9]+ steps")
  message(FATAL_ERROR
    "updsm_run: --gang=async run reported no async steps")
endif()
if(NOT out_w1 MATCHES "bit-exact vs sequential")
  message(FATAL_ERROR "updsm_run: --gang=async run did not converge")
endif()
message(STATUS "updsm_run: async gang deterministic across --workers")

# Protocols whose handlers are not parallel-safe must be rejected at parse
# time with an actionable message, not crash mid-run.
execute_process(COMMAND ${runner} --app=jacobi --protocol=sc-sw --gang=async
                        --nodes=4 --scale=0.1
                ERROR_VARIABLE err_reject RESULT_VARIABLE rc_reject)
if(rc_reject EQUAL 0)
  message(FATAL_ERROR "updsm_run accepted --gang=async with sc-sw")
endif()
if(NOT err_reject MATCHES "not parallel-safe")
  message(FATAL_ERROR
    "updsm_run: async/sc-sw rejection message is not actionable: "
    "${err_reject}")
endif()
message(STATUS "updsm_run: async gang rejects non-parallel-safe protocols")
