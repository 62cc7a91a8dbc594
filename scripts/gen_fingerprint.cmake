# Generates specsim_fingerprint.inc: a C string literal holding a hash
# of every simulator source file. Run as a build-time custom command
# (cmake -DSRC_DIR=... -DOUT_FILE=... -P gen_fingerprint.cmake), so the
# fingerprint tracks source *contents*, not just the configure-time
# file list. The result cache bakes this string into every cache key:
# any code change produces a new fingerprint and therefore misses on
# every stale entry (see docs/experiments.md, "Result cache").
#
# The hash is order-stable: files are hashed individually, then the
# sorted "path=sha1" lines are hashed together.

if(NOT DEFINED SRC_DIR OR NOT DEFINED OUT_FILE)
  message(FATAL_ERROR "usage: cmake -DSRC_DIR=<repo> -DOUT_FILE=<inc> -P gen_fingerprint.cmake")
endif()

file(GLOB_RECURSE FP_SOURCES
  ${SRC_DIR}/src/*.cc
  ${SRC_DIR}/src/*.hh
  ${SRC_DIR}/bench/scenarios/*.cc
  ${SRC_DIR}/bench/scenarios/*.hh)
list(SORT FP_SOURCES)

set(FP_LINES "")
foreach(f ${FP_SOURCES})
  file(SHA1 ${f} FILE_HASH)
  file(RELATIVE_PATH REL ${SRC_DIR} ${f})
  string(APPEND FP_LINES "${REL}=${FILE_HASH}\n")
endforeach()
string(SHA1 FP_HASH "${FP_LINES}")

set(CONTENT "\"${FP_HASH}\"\n")

# Only rewrite on change so the fingerprint TU is not recompiled on
# every build.
set(OLD_CONTENT "")
if(EXISTS ${OUT_FILE})
  file(READ ${OUT_FILE} OLD_CONTENT)
endif()
if(NOT OLD_CONTENT STREQUAL CONTENT)
  file(WRITE ${OUT_FILE} "${CONTENT}")
endif()
