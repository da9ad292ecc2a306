# Acceptance gate for the node-scaling ablation: virtual-time results are
# a pure function of the workload and config, so ablation_nodes (and the
# BENCH_nodes.json it writes) must be byte-identical whatever the worker
# count and across reruns -- and the --fanout / --relay-threshold toggles
# must actually change the traffic the CLI driver reports (proving the
# knobs reach the transport).
# Run via ctest:
#   cmake -DBENCH_DIR=<build>/bench -P bench_nodes_determinism.cmake
if(NOT DEFINED BENCH_DIR)
  message(FATAL_ERROR "pass -DBENCH_DIR=<dir with bench binaries>")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/bench_compare.cmake)

# 8 and 64 nodes cover both the legacy size and a post-64 cluster the flat
# stack could never reach; --quick keeps the 64-node sweep inside the test
# budget while still exercising the tree and relay paths for real.
set(flags --quick --nodes-list=8,64)

# --jobs=1 vs --jobs=4, plus a repeat of --jobs=1: all byte-identical, on
# stdout and in the emitted JSON.
foreach(run jobs1 jobs4 jobs1_again)
  if(run STREQUAL jobs4)
    set(jobs 4)
  else()
    set(jobs 1)
  endif()
  execute_process(
    COMMAND ${BENCH_DIR}/ablation_nodes ${flags} --jobs=${jobs}
    WORKING_DIRECTORY ${BENCH_DIR}
    OUTPUT_VARIABLE out_${run}
    ERROR_VARIABLE err_${run}
    RESULT_VARIABLE rc_${run})
  if(NOT rc_${run} EQUAL 0)
    message(FATAL_ERROR
      "ablation_nodes (${run}) failed (${rc_${run}}): ${err_${run}}")
  endif()
  bench_read_json(json_${run} ${BENCH_DIR}/BENCH_nodes.json)
endforeach()
bench_expect_identical("${out_jobs1}" "${out_jobs4}"
  "ablation_nodes: stdout differs between --jobs=1 and --jobs=4")
bench_expect_identical("${out_jobs1}" "${out_jobs1_again}"
  "ablation_nodes: repeated runs differ")
bench_expect_identical("${json_jobs1}" "${json_jobs4}"
  "BENCH_nodes.json differs between --jobs=1 and --jobs=4")
bench_expect_identical("${json_jobs1}" "${json_jobs1_again}"
  "BENCH_nodes.json differs across reruns")
message(STATUS "ablation_nodes: byte-identical across --jobs and reruns")

# The sweep must show the tree actually engaging: relayed batches at 64
# nodes, and a 64-node row where the tree is strictly faster than flat.
string(REGEX MATCH "\"nodes\": 64[^}]*\"speedup_flat_vs_tree\": 1" tree_wins
       "${json_jobs1}")
if(NOT tree_wins)
  message(FATAL_ERROR
    "BENCH_nodes.json shows no 64-node cell where the tree barrier wins")
endif()
string(REGEX MATCH "\"nodes\": 64[^}]*\"relay_batches\": [1-9]" relay_engages
       "${json_jobs1}")
if(NOT relay_engages)
  message(FATAL_ERROR
    "BENCH_nodes.json shows no relayed batches at 64 nodes at all")
endif()
message(STATUS "ablation_nodes: tree wins and relay engages at 64 nodes")

# Sanity-check the toggles on the CLI driver: flat and tree runs of a
# barrier-heavy workload must agree on correctness but disagree on the
# reported times; relay must change the message column.
execute_process(
  COMMAND ${BENCH_DIR}/../tools/updsm_run --app=fft --protocol=bar-u
          --nodes=64 --scale=0.25 --iters=2 --csv
  OUTPUT_VARIABLE out_flat RESULT_VARIABLE rc_flat)
execute_process(
  COMMAND ${BENCH_DIR}/../tools/updsm_run --app=fft --protocol=bar-u
          --nodes=64 --scale=0.25 --iters=2 --csv --fanout=4
          --relay-threshold=4
  OUTPUT_VARIABLE out_tree RESULT_VARIABLE rc_tree)
if(NOT rc_flat EQUAL 0 OR NOT rc_tree EQUAL 0)
  message(FATAL_ERROR "updsm_run topology toggle smoke failed")
endif()
if(out_flat STREQUAL out_tree)
  message(FATAL_ERROR
    "updsm_run: --fanout/--relay-threshold output is identical to the flat "
    "run; the knobs are not reaching the transport")
endif()
foreach(out IN ITEMS "${out_flat}" "${out_tree}")
  if(NOT out MATCHES ",1\n")
    message(FATAL_ERROR "updsm_run topology smoke: a run reported incorrect")
  endif()
endforeach()
message(STATUS "updsm_run: tree/relay knobs change traffic, not results")
