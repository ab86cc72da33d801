// Serial fallbacks for the handful of omp_* runtime calls the engines
// make, so builds without OpenMP (e.g. the ThreadSanitizer CI job, where
// libgomp's uninstrumented runtime would flood the report) still link.
// The parallel-for pragmas are inert without -fopenmp; these inline stubs
// cover the explicit API uses.
#pragma once

#ifdef _OPENMP
#include <omp.h>
#else
inline int omp_get_max_threads() { return 1; }
inline int omp_get_thread_num() { return 0; }
inline void omp_set_num_threads(int) {}
#endif
