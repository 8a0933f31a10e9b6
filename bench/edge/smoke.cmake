# Smoke test for edge_bench: runs every workload BENCHMARK.json declares
# with --quick, untraced and traced, and checks that each run passes its
# correctness gates and emits every declared metric with its unit.
#
#   cmake -DEDGE_BENCH=<edge_bench> -DBENCHMARK_JSON=<BENCHMARK.json> \
#         -P bench/edge/smoke.cmake
cmake_minimum_required(VERSION 3.19)

file(READ "${BENCHMARK_JSON}" spec)
string(JSON workload_count LENGTH "${spec}" workloads)
math(EXPR last_workload "${workload_count} - 1")

foreach(w RANGE ${last_workload})
  string(JSON workload GET "${spec}" workloads ${w} name)
  foreach(trace 0 1)
    if(trace EQUAL 0)
      set(section end_to_end)
    else()
      set(section per_layer)
    endif()
    execute_process(
      COMMAND "${EDGE_BENCH}" --workload ${workload} --seed 1
              --seconds 1 --trace ${trace} --quick
      OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${workload} --trace ${trace} exited ${rc}:\n${err}")
    endif()
    string(STRIP "${out}" out)
    string(FIND "${out}" "\n" cut REVERSE)
    math(EXPR cut "${cut} + 1")
    string(SUBSTRING "${out}" ${cut} -1 result)
    string(JSON correct GET "${result}" correct)
    if(NOT correct)
      message(FATAL_ERROR "${workload} --trace ${trace} is not correct")
    endif()
    string(JSON metric_count LENGTH "${spec}" ${section})
    math(EXPR last_metric "${metric_count} - 1")
    foreach(m RANGE ${last_metric})
      string(JSON name GET "${spec}" ${section} ${m} name)
      string(JSON unit GET "${spec}" ${section} ${m} unit)
      string(JSON got ERROR_VARIABLE missing
             GET "${result}" metrics ${name} unit)
      if(missing OR NOT got STREQUAL unit)
        message(FATAL_ERROR
          "${workload} --trace ${trace}: ${name} missing or not in ${unit}")
      endif()
    endforeach()
    message(STATUS "${workload} --trace ${trace}: ${metric_count} metrics ok")
  endforeach()
endforeach()
