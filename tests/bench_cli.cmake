# Command-line gate for the experiment binaries: a bench's own default
# scale yields to an explicit --scale (including --scale=1), and each
# binary still accepts exactly its own flag set, rejecting anything else
# (and any cluster value the config check refuses) with exit code 2
# before running. Run via ctest:
#   cmake -DBENCH_DIR=<build>/bench -DWORK_DIR=<scratch dir> -P bench_cli.cmake
if(NOT DEFINED BENCH_DIR OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DBENCH_DIR=<dir with bench binaries> "
                      "-DWORK_DIR=<dir for BENCH json>")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/bench_compare.cmake)
set(runner ${BENCH_DIR}/../tools/updsm_run)

# ablation_nodes defaults to scale 0.5; an explicit --scale=1 must win, on
# stdout and in BENCH_nodes.json. WORK_DIR keeps this run's json apart
# from the determinism gate's.
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(
  COMMAND ${BENCH_DIR}/ablation_nodes --nodes-list=2 --scale=1 --iters=1
          --warmup=1
  WORKING_DIRECTORY ${WORK_DIR}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ablation_nodes --scale=1 failed (${rc}): ${err}")
endif()
if(NOT out MATCHES "\\(scale 1\\.00\\)")
  message(FATAL_ERROR "ablation_nodes ignored --scale=1:\n${out}")
endif()
bench_read_json(json ${WORK_DIR}/BENCH_nodes.json)
if(NOT json MATCHES "\"scale\": 1\\.000,")
  message(FATAL_ERROR "BENCH_nodes.json ignored --scale=1:\n${json}")
endif()
message(STATUS "ablation_nodes: an explicit --scale=1 wins over 0.5")

# Fails unless the command in ARGN exits with `code`.
function(expect_rejected code)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL code)
    message(FATAL_ERROR "expected exit ${code}, got ${rc}: ${ARGN}\n${err}")
  endif()
endfunction()

# Flags of one binary are not flags of another.
expect_rejected(2 ${runner} --jobs=2)
expect_rejected(2 ${BENCH_DIR}/claims_summary --page-size=4096)
expect_rejected(2 ${BENCH_DIR}/ablation_faults --faults=drop=0.1)
# A flag value the cluster rejects fails at parse time, not mid-grid.
expect_rejected(2 ${BENCH_DIR}/claims_summary --nodes=0)
expect_rejected(2 ${BENCH_DIR}/ablation_nodes --cost=no.such_key=1)

# Every bench rejects an unknown flag. micro_primitives parses its flags
# with google-benchmark, which exits 1.
foreach(bench table1_base_stats fig2_speedups fig3_breakdown fig4_overdrive
        claims_summary ablation_os_stress ablation_page_size ablation_nodes
        ablation_migration ablation_faults ablation_aggregation
        ablation_profiles ablation_async sweep_matrix convergence_timeline
        wallclock_scaling)
  expect_rejected(2 ${BENCH_DIR}/${bench} --no-such-flag)
endforeach()
expect_rejected(1 ${BENCH_DIR}/micro_primitives --no-such-flag)
message(STATUS "every binary rejects flags outside its own set")
