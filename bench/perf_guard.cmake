# Runs one bench with smoke-scale parameters, then compares the rate
# fields of the JSON it emits against the committed repo-root baseline
# through the perf_guard tool. Invoked by ctest as
#
#   cmake -DBENCH_EXE=<bench binary> -DBENCH_ARGS="--users=12"
#         -DBENCH_JSON=BENCH_foo.json -DGUARD_EXE=<perf_guard binary>
#         -DBASELINE=<repo>/BENCH_foo.json -DGUARD_FIELDS="rate_a;rate_b"
#         -P perf_guard.cmake
#
# The guard's pass floor is baseline / PRIVLOCAD_PERF_TOLERANCE (default
# 5x, see perf_guard.cpp) -- it catches order-of-magnitude collapses at
# smoke scale, not noise. -DRUNS=<n> (default 1) runs the bench up to n
# times and passes on the first run whose rates clear the floor: a
# collapse in the code slows every run, a busy host only some. Every run
# must still exit 0. With -DDISTURBED_FIELD=<key>, a run whose record has
# a non-zero <key> measured a disturbed host (edge_bench counts the
# saturation windows the hypervisor stole CPU from) and is not compared;
# when no run was undisturbed the guard reports itself skipped.
foreach(required BENCH_EXE BENCH_JSON GUARD_EXE BASELINE GUARD_FIELDS)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "perf_guard: ${required} must be defined")
  endif()
endforeach()

if(NOT EXISTS "${BASELINE}")
  message(FATAL_ERROR "perf_guard: committed baseline ${BASELINE} not found")
endif()

if(NOT DEFINED RUNS)
  set(RUNS 1)
endif()

set(compared 0)
foreach(run RANGE 1 ${RUNS})
  # A record left by an earlier run must not stand in for this one.
  file(REMOVE "${BENCH_JSON}")
  execute_process(
    COMMAND "${BENCH_EXE}" ${BENCH_ARGS}
    RESULT_VARIABLE bench_status
    OUTPUT_VARIABLE bench_stdout
    ERROR_VARIABLE bench_stderr)
  if(NOT bench_status EQUAL 0)
    message(FATAL_ERROR
      "perf_guard: ${BENCH_EXE} exited with ${bench_status}\n"
      "stdout:\n${bench_stdout}\nstderr:\n${bench_stderr}")
  endif()
  if(NOT EXISTS "${BENCH_JSON}")
    message(FATAL_ERROR
      "perf_guard: ${BENCH_EXE} did not write ${BENCH_JSON}")
  endif()

  if(DEFINED DISTURBED_FIELD)
    file(READ "${BENCH_JSON}" record)
    if(NOT record MATCHES "\"${DISTURBED_FIELD}\": ([0-9.eE+-]+)")
      message(FATAL_ERROR
        "perf_guard: ${BENCH_JSON} has no ${DISTURBED_FIELD}")
    endif()
    if(NOT CMAKE_MATCH_1 EQUAL 0)
      message(STATUS "run ${run} of ${RUNS}: ${DISTURBED_FIELD} = "
                     "${CMAKE_MATCH_1}, not compared")
      continue()
    endif()
  endif()

  math(EXPR compared "${compared} + 1")
  execute_process(
    COMMAND "${GUARD_EXE}" "${BENCH_JSON}" "${BASELINE}" ${GUARD_FIELDS}
    RESULT_VARIABLE guard_status
    OUTPUT_VARIABLE guard_stdout
    ERROR_VARIABLE guard_stderr)
  message(STATUS "run ${run} of ${RUNS}: ${guard_stdout}")
  if(guard_status EQUAL 0)
    return()
  endif()
endforeach()
if(compared EQUAL 0)
  message(STATUS "perf_guard: skipped, no run of ${RUNS} was undisturbed")
  return()
endif()
message(FATAL_ERROR
  "perf_guard: regression detected in ${compared} run(s) "
  "(exit ${guard_status})\n"
  "stdout:\n${guard_stdout}\nstderr:\n${guard_stderr}")
