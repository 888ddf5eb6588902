      SUBROUTINE CHAIN(A, K)
      INTEGER K, M, L, N, J, I
      REAL A(100)
      M = K
      L = K
      N = M
      J = L
      DO 10 I = 1, 10
        A(I + N) = A(I + J) + 1
   10 CONTINUE
      END
