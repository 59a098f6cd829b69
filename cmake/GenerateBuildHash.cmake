# Generates <build>/generated/cisp_build_hash.h: a single CISP_BUILD_HASH
# macro holding a SHA-256 over the content of every source file. The engine
# folds it into result-cache keys so a rebuild never serves cached results
# computed by different code (ROADMAP: "teach the cache to invalidate on
# code version").
#
# Driven as a build-time custom command (see CMakeLists.txt) whose DEPENDS
# lists the same files hashed here, so the header — and the one TU that
# includes it — regenerates exactly when a source file changes.
#
# Inputs: -DSOURCE_DIR=<repo root> -DOUTPUT=<header path>
# (-DFILELIST_FINGERPRINT is accepted but unused here: the configure step
# puts a hash of the globbed file list on the command line so that adding
# OR DELETING a source file changes the build edge and forces a re-run —
# mtime-based dependencies alone cannot see deletions.)

if(NOT DEFINED SOURCE_DIR OR NOT DEFINED OUTPUT)
  message(FATAL_ERROR "GenerateBuildHash.cmake needs -DSOURCE_DIR and -DOUTPUT")
endif()

file(GLOB_RECURSE hash_inputs
     "${SOURCE_DIR}/src/*.cpp" "${SOURCE_DIR}/src/*.hpp"
     "${SOURCE_DIR}/bench/*.cpp" "${SOURCE_DIR}/bench/*.hpp"
     "${SOURCE_DIR}/examples/*.cpp")
list(SORT hash_inputs)

# Hash path AND content: a rename must change the stamp too, and a
# deleted file shrinks the list.
set(accumulated "")
foreach(input IN LISTS hash_inputs)
  file(RELATIVE_PATH rel "${SOURCE_DIR}" "${input}")
  file(SHA256 "${input}" file_hash)
  string(APPEND accumulated "${rel}:${file_hash}\n")
endforeach()
string(SHA256 tree_hash "${accumulated}")

get_filename_component(output_dir "${OUTPUT}" DIRECTORY)
file(MAKE_DIRECTORY "${output_dir}")
file(WRITE "${OUTPUT}"
     "// Generated by cmake/GenerateBuildHash.cmake — do not edit.\n"
     "#pragma once\n"
     "#define CISP_BUILD_HASH \"${tree_hash}\"\n")
