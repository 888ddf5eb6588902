      PROGRAM ADVPRV
      REAL A(1000)
      DO I = 1, 1000
        A(I) = 0.5 * I
      ENDDO
      DO I = 2, 1000
        T = A(I - 1) * 0.5
        A(I) = T + 1.0
      ENDDO
      PRINT *, T, A(1000)
      END
