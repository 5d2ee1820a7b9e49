// Fixture: no-fp-contract hits and misses.
#include <cmath>
#include <immintrin.h>

#pragma STDC FP_CONTRACT ON                          // HIT
#pragma GCC optimize("fast-math")                    // HIT
#pragma clang fp contract(fast)                      // HIT
__attribute__((optimize("O3"))) void f1();           // HIT
__attribute__((hot, __optimize__("-O3"))) void f2(); // HIT
[[gnu::optimize("fast-math")]] void f3();            // HIT

double hits(double a, double b, double c, __m256d x, __m256d y) {
  double r = std::fma(a, b, c);                      // HIT
  r += fmaf(1.0f, 2.0f, 3.0f);                       // HIT
  r += __builtin_fma(a, b, c);                       // HIT
  __m256d v = _mm256_fmadd_pd(x, y, x);              // HIT
  v = _mm256_fnmsub_pd(v, y, x);                     // HIT
  (void)v;
  return r;
}

#pragma GCC unroll 4
__attribute__((target("avx2"))) void g1();            // ISA, not FP semantics
[[gnu::always_inline]] inline void g2() {}
struct Search {
  int optimize(int budget);                           // an hpo-style method
};
int Search::optimize(int budget) { return budget; }

double misses(Search& s, Search* p, double a, __m256d x, __m256d y) {
  const char* doc = "std::fma and #pragma STDC FP_CONTRACT";  // a string
  // std::fma(a, a, a) and __attribute__((optimize)) in a comment
  const int n = s.optimize(3) + p->optimize(4);
  const double fma_count = a * a + a;                 // names, not calls
  __m256d w = _mm256_add_pd(_mm256_mul_pd(x, y), y);  // separate roundings
  (void)doc;
  (void)w;
  return n + fma_count;
}
