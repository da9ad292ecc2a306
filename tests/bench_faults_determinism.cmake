# Acceptance gate for the fault-injection bench: the injected fault
# schedule is a pure function of (--fault-seed, workload), so
# ablation_faults must print byte-identical output, and write a
# byte-identical BENCH_faults.json, whatever the worker count; repeated
# runs with the same seed must agree exactly (while a different seed must
# not, proving the plans actually bite). Run via ctest:
#   cmake -DBENCH_DIR=<build>/bench -P bench_faults_determinism.cmake
if(NOT DEFINED BENCH_DIR)
  message(FATAL_ERROR "pass -DBENCH_DIR=<dir with bench binaries>")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/bench_compare.cmake)

set(flags --quick --scale=0.12 --iters=2 --nodes=4)

# Same seed, --jobs=1 vs --jobs=4, plus a repeat of --jobs=1: all identical.
foreach(run jobs1 jobs4 jobs1_again)
  if(run STREQUAL jobs4)
    set(jobs 4)
  else()
    set(jobs 1)
  endif()
  execute_process(
    COMMAND ${BENCH_DIR}/ablation_faults ${flags} --jobs=${jobs}
            --fault-seed=42
    WORKING_DIRECTORY ${BENCH_DIR}
    OUTPUT_VARIABLE out_${run}
    ERROR_VARIABLE err_${run}
    RESULT_VARIABLE rc_${run})
  if(NOT rc_${run} EQUAL 0)
    message(FATAL_ERROR
      "ablation_faults (${run}) failed (${rc_${run}}): ${err_${run}}")
  endif()
  bench_read_json(json_${run} ${BENCH_DIR}/BENCH_faults.json)
endforeach()
bench_expect_identical("${out_jobs1}" "${out_jobs4}"
  "ablation_faults: stdout differs between --jobs=1 and --jobs=4")
bench_expect_identical("${out_jobs1}" "${out_jobs1_again}"
  "ablation_faults: repeated runs with --fault-seed=42 differ")
bench_expect_identical("${json_jobs1}" "${json_jobs4}"
  "BENCH_faults.json differs between --jobs=1 and --jobs=4")
bench_expect_identical("${json_jobs1}" "${json_jobs1_again}"
  "BENCH_faults.json differs across reruns")
message(STATUS "ablation_faults: byte-identical across --jobs and reruns")

# A different seed must change the injected schedule somewhere.
execute_process(
  COMMAND ${BENCH_DIR}/ablation_faults ${flags} --jobs=1 --fault-seed=43
  WORKING_DIRECTORY ${BENCH_DIR}
  OUTPUT_VARIABLE out_seed43
  ERROR_VARIABLE err_seed43
  RESULT_VARIABLE rc_seed43)
if(NOT rc_seed43 EQUAL 0)
  message(FATAL_ERROR
    "ablation_faults --fault-seed=43 failed (${rc_seed43}): ${err_seed43}")
endif()
if(out_jobs1 STREQUAL out_seed43)
  message(FATAL_ERROR
    "ablation_faults: --fault-seed=42 and 43 printed identical output; "
    "the fault plans are not reaching the runs")
endif()
message(STATUS "ablation_faults: --fault-seed changes the schedule")
