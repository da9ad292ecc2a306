# Acceptance gate for the parallel gang: every grid bench must produce
# byte-identical stdout whether the simulated nodes run serialized
# (--gang=baton) or concurrently (--gang=parallel), and whatever the
# experiment-engine worker count. Run via ctest:
#   cmake -DBENCH_DIR=<build>/bench -P bench_gang_determinism.cmake
if(NOT DEFINED BENCH_DIR)
  message(FATAL_ERROR "pass -DBENCH_DIR=<dir with bench binaries>")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/bench_compare.cmake)

set(flags --quick --scale=0.15 --iters=2)
foreach(bench sweep_matrix fig2_speedups fig3_breakdown claims_summary
        table1_base_stats)
  foreach(gang baton parallel)
    execute_process(
      COMMAND ${BENCH_DIR}/${bench} ${flags} --gang=${gang} --jobs=2
      OUTPUT_VARIABLE out_${gang}
      ERROR_VARIABLE err_${gang}
      RESULT_VARIABLE rc_${gang})
    if(NOT rc_${gang} EQUAL 0)
      message(FATAL_ERROR
        "${bench} --gang=${gang} failed (${rc_${gang}}): ${err_${gang}}")
    endif()
  endforeach()
  bench_expect_identical("${out_baton}" "${out_parallel}"
    "${bench}: stdout differs between --gang=baton and --gang=parallel")
  message(STATUS "${bench}: --gang=baton and --gang=parallel byte-identical")
endforeach()
