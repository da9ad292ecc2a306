# Acceptance gate for the aggregation ablation: virtual-time results are a
# pure function of the workload and config, so ablation_aggregation (and
# the BENCH_aggregation.json it writes) must be byte-identical whatever
# the worker count and across reruns -- and --no-aggregate must actually
# change the traffic it reports (proving the toggle reaches the runs).
# Run via ctest:
#   cmake -DBENCH_DIR=<build>/bench -P bench_aggregation_determinism.cmake
if(NOT DEFINED BENCH_DIR)
  message(FATAL_ERROR "pass -DBENCH_DIR=<dir with bench binaries>")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/bench_compare.cmake)

# fft only coalesces once rows span several pages; 0.5 is the smallest
# scale where the sweep exercises real multi-record batches (see the bench
# preamble), and 4 nodes keeps the 144-run sweep quick.
set(flags --scale=0.5 --iters=2 --warmup=2 --nodes=4)

# --jobs=1 vs --jobs=4, plus a repeat of --jobs=1: all byte-identical, on
# stdout and in the emitted JSON.
foreach(run jobs1 jobs4 jobs1_again)
  if(run STREQUAL jobs4)
    set(jobs 4)
  else()
    set(jobs 1)
  endif()
  execute_process(
    COMMAND ${BENCH_DIR}/ablation_aggregation ${flags} --jobs=${jobs}
    WORKING_DIRECTORY ${BENCH_DIR}
    OUTPUT_VARIABLE out_${run}
    ERROR_VARIABLE err_${run}
    RESULT_VARIABLE rc_${run})
  if(NOT rc_${run} EQUAL 0)
    message(FATAL_ERROR
      "ablation_aggregation (${run}) failed (${rc_${run}}): ${err_${run}}")
  endif()
  bench_read_json(json_${run} ${BENCH_DIR}/BENCH_aggregation.json)
endforeach()
bench_expect_identical("${out_jobs1}" "${out_jobs4}"
  "ablation_aggregation: stdout differs between --jobs=1 and --jobs=4")
bench_expect_identical("${out_jobs1}" "${out_jobs1_again}"
  "ablation_aggregation: repeated runs differ")
bench_expect_identical("${json_jobs1}" "${json_jobs4}"
  "BENCH_aggregation.json differs between --jobs=1 and --jobs=4")
bench_expect_identical("${json_jobs1}" "${json_jobs1_again}"
  "BENCH_aggregation.json differs across reruns")
message(STATUS
  "ablation_aggregation: byte-identical across --jobs and reruns")

# The sweep must contain real coalescing somewhere (a message_reduction
# above 1x), otherwise the bench is measuring nothing.
string(FIND "${json_jobs1}" "\"message_reduction\": 2" has_reduction)
if(has_reduction EQUAL -1)
  string(FIND "${json_jobs1}" "\"message_reduction\": 4" has_reduction)
endif()
if(has_reduction EQUAL -1)
  message(FATAL_ERROR
    "BENCH_aggregation.json shows no multi-record coalescing at all")
endif()
message(STATUS "ablation_aggregation: sweep exercises real coalescing")

# Sanity-check the toggle on the CLI driver: aggregated and per-page runs
# of a coalescing workload must agree on correctness but disagree on the
# message column.
execute_process(
  COMMAND ${BENCH_DIR}/../tools/updsm_run --app=fft --protocol=bar-u
          --scale=0.5 --iters=2 --csv
  OUTPUT_VARIABLE out_agg RESULT_VARIABLE rc_agg)
execute_process(
  COMMAND ${BENCH_DIR}/../tools/updsm_run --app=fft --protocol=bar-u
          --scale=0.5 --iters=2 --csv --no-aggregate
  OUTPUT_VARIABLE out_noagg RESULT_VARIABLE rc_noagg)
if(NOT rc_agg EQUAL 0 OR NOT rc_noagg EQUAL 0)
  message(FATAL_ERROR "updsm_run toggle smoke failed")
endif()
if(out_agg STREQUAL out_noagg)
  message(FATAL_ERROR
    "updsm_run: --no-aggregate output is identical to the aggregated run; "
    "the toggle is not reaching the transport")
endif()
foreach(out IN ITEMS "${out_agg}" "${out_noagg}")
  if(NOT out MATCHES ",1\n")
    message(FATAL_ERROR "updsm_run toggle smoke: a run reported incorrect")
  endif()
endforeach()
message(STATUS "updsm_run: --no-aggregate changes traffic, not results")
