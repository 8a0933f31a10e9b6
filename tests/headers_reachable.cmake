# Fails when a header under src/ is included by no file in src/, bench/ or
# examples/ other than its own .cpp: library surface that no binary reaches
# and only tests exercise. Delete such code with its tests, move a test
# oracle into tests/oracles.cpp, or list it in ALLOWED below with the
# reason it stays.
#
#   cmake -DSOURCE_DIR=<repo root> -P tests/headers_reachable.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT SOURCE_DIR)
  message(FATAL_ERROR "pass -DSOURCE_DIR=<repo root>")
endif()

# <header relative to src/>|<why it stays without a non-test includer>
set(ALLOWED)

set(allowed_headers "")
foreach(entry IN LISTS ALLOWED)
  string(REPLACE "|" ";" fields "${entry}")
  list(GET fields 0 header)
  list(APPEND allowed_headers "${header}")
endforeach()

file(GLOB_RECURSE includers
  "${SOURCE_DIR}/src/*.hpp" "${SOURCE_DIR}/src/*.cpp"
  "${SOURCE_DIR}/bench/*.hpp" "${SOURCE_DIR}/bench/*.cpp"
  "${SOURCE_DIR}/examples/*.hpp" "${SOURCE_DIR}/examples/*.cpp")

# Every (includer, included header) pair, as "<includer>|<header>".
set(edges "")
foreach(file IN LISTS includers)
  file(STRINGS "${file}" lines REGEX "^[ \t]*#[ \t]*include[ \t]+\"")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]+\"([^\"]+)\".*$" "\\1"
           header "${line}")
    list(APPEND edges "${file}|${header}")
  endforeach()
endforeach()

file(GLOB_RECURSE headers RELATIVE "${SOURCE_DIR}/src" "${SOURCE_DIR}/src/*.hpp")
set(unreached "")
set(stale "")
foreach(header IN LISTS headers)
  string(REGEX REPLACE "\\.hpp$" ".cpp" own_cpp "${SOURCE_DIR}/src/${header}")
  set(reached FALSE)
  foreach(edge IN LISTS edges)
    string(REPLACE "|" ";" fields "${edge}")
    list(GET fields 0 includer)
    list(GET fields 1 included)
    if(included STREQUAL header AND NOT includer STREQUAL own_cpp)
      set(reached TRUE)
      break()
    endif()
  endforeach()
  if(header IN_LIST allowed_headers)
    # Reached after all: the entry no longer means anything.
    if(reached)
      list(APPEND stale "${header}")
    endif()
  elseif(NOT reached)
    list(APPEND unreached "${header}")
  endif()
endforeach()
foreach(header IN LISTS allowed_headers)
  if(NOT EXISTS "${SOURCE_DIR}/src/${header}")
    list(APPEND stale "${header}")
  endif()
endforeach()

if(unreached OR stale)
  foreach(header IN LISTS unreached)
    message(SEND_ERROR "src/${header} is included by nothing in src/, "
                       "bench/ or examples/ but its own .cpp")
  endforeach()
  foreach(header IN LISTS stale)
    message(SEND_ERROR "allowlist entry src/${header} is stale: the header "
                       "is gone or has a non-test includer")
  endforeach()
  message(FATAL_ERROR "unreachable library headers found")
endif()
list(LENGTH headers count)
message(STATUS "all ${count} src/ headers are reachable")
