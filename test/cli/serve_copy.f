      PROGRAM NEST
      REAL A(100)
      DO 10 I = 2, 100
        A(I) = A(I - 1) + 1.0
   10 CONTINUE
      END
