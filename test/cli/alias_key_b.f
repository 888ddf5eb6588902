      PROGRAM P
      REAL X(100), Y(100)
      CALL S(X, X, Y)
      END
      SUBROUTINE S(B, C, Z)
      REAL B(100), C(100), Z(100)
      DO 10 I = 1, 99
        B(I) = C(I + 1)
   10 CONTINUE
      Z(1) = 0.0
      END
