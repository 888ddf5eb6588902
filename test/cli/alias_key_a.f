      PROGRAM P
      REAL X(100), Y(100)
      CALL S(X, Y, X)
      END
      SUBROUTINE S(B, C, A)
      REAL B(100), C(100), A(100)
      DO 10 I = 1, 99
        B(I) = C(I + 1)
   10 CONTINUE
      A(1) = 0.0
      END
