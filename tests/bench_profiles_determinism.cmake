# Acceptance gate for the cost-profile ablation: virtual-time results are a
# pure function of the workload and config, so ablation_profiles (and the
# BENCH_profiles.json it writes) must be byte-identical across --jobs,
# --workers and reruns -- and the --net-profile / --cost knobs on the CLI
# driver must actually change the times they model without ever changing
# the computed data.
# Run via ctest:
#   cmake -DBENCH_DIR=<build>/bench -P bench_profiles_determinism.cmake
if(NOT DEFINED BENCH_DIR)
  message(FATAL_ERROR "pass -DBENCH_DIR=<dir with bench binaries>")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/bench_compare.cmake)

set(flags --quick)

# --jobs=1 vs --jobs=4, a --workers=1 run, plus a repeat of --jobs=1: all
# byte-identical, on stdout and in the emitted JSON outside its "host"
# object (which stamps the resolved worker count).
foreach(run jobs1 jobs4 workers1 jobs1_again)
  set(extra "")
  if(run STREQUAL jobs4)
    set(extra --jobs=4)
  elseif(run STREQUAL workers1)
    set(extra --workers=1)
  else()
    set(extra --jobs=1)
  endif()
  execute_process(
    COMMAND ${BENCH_DIR}/ablation_profiles ${flags} ${extra}
    WORKING_DIRECTORY ${BENCH_DIR}
    OUTPUT_VARIABLE out_${run}
    ERROR_VARIABLE err_${run}
    RESULT_VARIABLE rc_${run})
  if(NOT rc_${run} EQUAL 0)
    message(FATAL_ERROR
      "ablation_profiles (${run}) failed (${rc_${run}}): ${err_${run}}")
  endif()
  bench_read_json(json_${run} ${BENCH_DIR}/BENCH_profiles.json)
endforeach()
foreach(run jobs4 workers1 jobs1_again)
  bench_expect_identical("${out_jobs1}" "${out_${run}}"
    "ablation_profiles: stdout differs between --jobs=1 and ${run}")
  bench_expect_identical("${json_jobs1}" "${json_${run}}"
    "BENCH_profiles.json differs between --jobs=1 and ${run}")
endforeach()
message(STATUS
  "ablation_profiles: byte-identical across --jobs, --workers and reruns")

# The sweep must show the headline phenomena even at --quick scale: at
# least one fixed-protocol ranking inversion between the profiles, and an
# adaptive row for every (profile, app) cell.
string(REGEX MATCH "\"ranking_inversions\": [1-9]" has_inversion
       "${json_jobs1}")
if(NOT has_inversion)
  message(FATAL_ERROR
    "BENCH_profiles.json reports no fixed-protocol ranking inversion "
    "between sp2 and rdma")
endif()
string(REGEX MATCHALL "\"adaptive_speedup\"" adaptive_rows "${json_jobs1}")
list(LENGTH adaptive_rows n_adaptive)
if(n_adaptive LESS 6)
  message(FATAL_ERROR
    "BENCH_profiles.json has ${n_adaptive} adaptive rows, expected 6 "
    "(2 profiles x 3 apps)")
endif()
message(STATUS "ablation_profiles: inversion present, adaptive grid complete")

# Profile smoke on the CLI driver: same workload under sp2 vs rdma vs an
# sp2 override must stay correct (checksum column) while reporting
# different times; the knobs must reach the cost model.
set(runner ${BENCH_DIR}/../tools/updsm_run)
set(common --app=jacobi --protocol=adaptive --scale=0.25 --iters=3 --csv)
execute_process(COMMAND ${runner} ${common} --net-profile=sp2
                OUTPUT_VARIABLE out_sp2 RESULT_VARIABLE rc_sp2)
execute_process(COMMAND ${runner} ${common} --net-profile=rdma
                OUTPUT_VARIABLE out_rdma RESULT_VARIABLE rc_rdma)
execute_process(COMMAND ${runner} ${common} --net-profile=sp2
                        --cost=net.per_message_us=5
                OUTPUT_VARIABLE out_cost RESULT_VARIABLE rc_cost)
if(NOT rc_sp2 EQUAL 0 OR NOT rc_rdma EQUAL 0 OR NOT rc_cost EQUAL 0)
  message(FATAL_ERROR "updsm_run profile smoke failed to run")
endif()
if(out_sp2 STREQUAL out_rdma)
  message(FATAL_ERROR
    "updsm_run: --net-profile=rdma output is identical to sp2; the profile "
    "is not reaching the cost model")
endif()
if(out_sp2 STREQUAL out_cost)
  message(FATAL_ERROR
    "updsm_run: --cost override output is identical to the base profile")
endif()
foreach(out IN ITEMS "${out_sp2}" "${out_rdma}" "${out_cost}")
  if(NOT out MATCHES ",1\n")
    message(FATAL_ERROR "updsm_run profile smoke: a run reported incorrect")
  endif()
endforeach()
# An unknown profile or cost key must fail fast with a helpful message.
execute_process(COMMAND ${runner} ${common} --net-profile=myrinet
                ERROR_VARIABLE err_badprofile RESULT_VARIABLE rc_badprofile)
if(rc_badprofile EQUAL 0)
  message(FATAL_ERROR "updsm_run accepted --net-profile=myrinet")
endif()
execute_process(COMMAND ${runner} ${common} --cost=net.bogus_us=1
                ERROR_VARIABLE err_badkey RESULT_VARIABLE rc_badkey)
if(rc_badkey EQUAL 0)
  message(FATAL_ERROR "updsm_run accepted an unknown --cost key")
endif()
if(NOT err_badkey MATCHES "net.per_message_us")
  message(FATAL_ERROR
    "updsm_run: unknown --cost key error does not list the valid keys")
endif()
message(STATUS "updsm_run: profile/cost knobs change times, not results")
