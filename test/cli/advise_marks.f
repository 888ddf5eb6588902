      PROGRAM ADVMRK
      INTEGER IX(1000)
      REAL A(1000)
      DO I = 1, 1000
        IX(I) = 1001 - I
        A(I) = 0.0
      ENDDO
      DO I = 1, 1000
        A(IX(I)) = A(IX(I)) + 1.0
      ENDDO
      PRINT *, A(1), A(1000)
      END
